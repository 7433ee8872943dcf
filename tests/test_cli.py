import json
import shutil
from pathlib import Path
from statistics import fmean

import pytest

from ortho_lora import trainer as trainer_module
from ortho_lora.adapter import load_adapter
from ortho_lora.cli import run_cli
from ortho_lora.config import JOINT, ORTHO_STRUCTURED, load_config
from ortho_lora.reporting import EVAL_HEADER, RANK_HEADER, STEPS_HEADER, fmt, summarize_dir
from ortho_lora.trainer import run_experiment


def write_config(path: Path, **overrides) -> Path:
    raw = {
        "version": 1,
        "seed": 5,
        "modes": ["SINGLE_TASK", "JOINT", "ORTHO_STRUCTURED"],
        "model": {"layer_dims": [6, 6], "rank": 2, "alpha": 4.0, "sigma_init": 0.02},
        "optimizer": {"lr_base": 0.01},
        "schedule": {"epochs": 1, "batch_size": 8},
        "tasks": {"kind": "classification", "num_tasks": 2, "in_dim": 6, "out_dim": 2,
                  "conflict_level": 0.9, "noise_sigma": 0.0, "n_train": 32, "n_eval": 16},
    }
    raw.update(overrides)
    path.write_text(json.dumps(raw))
    return path


def test_validate_ok_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "good.json")
    before = set(tmp_path.iterdir())
    assert run_cli(["validate", str(cfg)]) == 0
    assert set(tmp_path.iterdir()) == before
    assert "ok" in capsys.readouterr().out


def test_validate_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"version": 1, "seed": 0, "bogus_field": 1}))
    assert run_cli(["validate", str(cfg)]) == 2
    assert "bogus_field" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["validate"], ["run", "--out", "out"]], ids=["validate", "run"])
def test_bad_config_field_names_the_file_and_field(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "bad.json", schedule={"epochs": 1, "batch_size": 0})
    assert run_cli([args[0], str(cfg), *args[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: config.schedule.batch_size: must be >= 1, got 0")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tasks,message", [
    ({"out_dim": 8, "n_eval": 5}, "config.tasks.n_eval: 5 examples cannot hold 8 classes of >= 10% each"),
    ({"out_dim": 3, "shared_scale": 0.0}, "config.tasks.shared_scale: 0 with noise_sigma 0 gives a rank-1 "
                                          "teacher of at most 2 argmax labels, not out_dim=3 classes"),
], ids=["eval pool", "rank-1 teacher"])
def test_validate_rejects_a_label_pool_that_cannot_be_drawn(tmp_path, capsys, tasks, message):
    # no draw can fill these pools, so the config itself is rejected, naming the field
    raw = json.loads(write_config(tmp_path / "good.json").read_text())
    raw["tasks"].update(tasks)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    assert run_cli(["validate", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: {message}")


@pytest.mark.parametrize("command", ["validate", "run", "sweep-rank"])
def test_a_label_pool_no_draw_fills_exits_2_naming_the_task_and_pool(tmp_path, capsys, command):
    # configs/default.json as 8 classes with 8 held-out examples: one example
    # per class is possible, so the config loads, but no draw ever holds it
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs" / "default.json").read_text())
    raw["tasks"].update(kind="classification", out_dim=8, n_eval=8)
    cfg = tmp_path / "rare.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    flags = {"validate": [], "run": ["--out", str(out)],
             "sweep-rank": ["--ranks", "2", "--seeds", "1", "--out", str(out)]}[command]
    assert run_cli([command, str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: config.tasks: could not draw task 0's labels with each "
                          "of 8 classes >= 10% of its pool in 100 attempts; short: ")
    assert "tasks.n_eval (8 examples) 100 times" in err and "Traceback" not in err
    assert not out.exists()


def test_validate_oversized_integer_exits_2_naming_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "huge.json",
                       tasks={"kind": "regression", "num_tasks": 2, "in_dim": 6, "out_dim": 2,
                              "n_train": 32, "n_eval": 2**70})
    assert run_cli(["validate", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"error: {cfg}: config.tasks.n_eval: must be <= "
                                       f"{2**63 - 1}, got {2**70}\n")


@pytest.mark.parametrize("command", ["validate", "run", "sweep-rank"])
def test_array_numpy_cannot_size_exits_2_naming_the_field(tmp_path, capsys, command):
    # 2**62 examples pass n_train's own bound, but the train pool's bytes overflow int64
    cfg = write_config(tmp_path / "huge.json",
                       tasks={"kind": "regression", "num_tasks": 2, "in_dim": 6, "out_dim": 2,
                              "n_train": 2**62, "n_eval": 16})
    out = tmp_path / "out"
    flags = {"validate": [], "run": ["--out", str(out)],
             "sweep-rank": ["--ranks", "2", "--seeds", "1", "--out", str(out)]}[command]
    assert run_cli([command, str(cfg), *flags]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: config.tasks.n_train: a run of this config needs an array of "
        f"{2 * 2**62 * 6} entries of 8 bytes, more than numpy can size ({2**63 - 1} bytes)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep-rank"])
def test_a_run_that_fails_in_training_leaves_no_run_directory(tmp_path, capsys, command):
    # 10**13 epochs pass every check, and the run's lr column does not fit in
    # memory: exit 1, and the directory, made only after training, is not there
    cfg = write_config(tmp_path / "long.json", schedule={"epochs": 10**13, "batch_size": 8})
    out = tmp_path / "out"
    flags = ["--ranks", "2", "--seeds", "1"] if command == "sweep-rank" else []
    assert run_cli([command, str(cfg), *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_memory_error_is_a_runtime_failure_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                               command):
    # a config whose arrays do not fit: no traceback, exit 1, nothing written
    def too_big(config):
        raise MemoryError("Unable to allocate 1.14 PiB for an array")

    monkeypatch.setattr("ortho_lora.cli.build_task_set", too_big)
    cfg = write_config(tmp_path / "exp.json")
    out = tmp_path / "out"
    flags = ["--out", str(out)] if command == "run" else []
    assert run_cli([command, str(cfg), *flags]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 1.14 PiB for an array\n"
    assert not out.exists()


def test_validate_missing_file_exits_2(tmp_path, capsys):
    assert run_cli(["validate", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(tmp_path, capsys):
    assert run_cli(["frobnicate"]) == 2


def test_help_exits_0(capsys):
    assert run_cli(["--help"]) == 0


def test_run_writes_expected_files(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.json")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "config.json").is_file()
    for mode in ("SINGLE_TASK", "JOINT", "ORTHO_STRUCTURED"):
        assert (out / mode / "steps.csv").is_file()
        assert (out / mode / "eval.csv").is_file()
    # final-state adapter dumps: per task for SINGLE_TASK, one set otherwise
    assert (out / "JOINT" / "adapter_L0.json").is_file()
    assert (out / "SINGLE_TASK" / "task0_adapter_L0.json").is_file()
    assert (out / "SINGLE_TASK" / "task1_adapter_L0.json").is_file()


def test_every_adapter_dump_of_a_run_loads_back_bit_for_bit(tmp_path, capsys, monkeypatch):
    results = []

    def run_and_keep(config, task_set):
        results.append(run_experiment(config, task_set))
        return results[-1]

    monkeypatch.setattr("ortho_lora.cli.run_experiment", run_and_keep)
    modes = ["SINGLE_TASK", "JOINT", "ORTHO_FLAT", "ORTHO_STRUCTURED"]
    cfg = write_config(tmp_path / "exp.json", modes=modes,
                       model={"layer_dims": [6, 5, 4], "rank": 2, "alpha": 3.0, "sigma_init": 0.02})
    out = tmp_path / "out"
    assert run_cli(["run", str(cfg), "--out", str(out)]) == 0
    [result] = results
    for mode in modes:
        dumps = sorted(p.name for p in (out / mode).glob("*adapter_L*.json"))
        models = result.models[mode]
        prefixes = [f"task{idx}_" for idx in range(2)] if mode == "SINGLE_TASK" else [""]
        assert dumps == [f"{prefix}adapter_L{li}.json" for prefix in prefixes for li in (0, 1)]
        for prefix, model in zip(prefixes, models, strict=True):
            for li, layer in enumerate(model.layers):
                back = load_adapter(out / mode / f"{prefix}adapter_L{li}.json")
                assert (back.rank, back.alpha) == (layer.adapter.rank, layer.adapter.alpha)
                for got, want in ((back.a, layer.adapter.a), (back.b, layer.adapter.b)):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_run_twice_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "exp.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["run", str(cfg), "--out", str(out2)]) == 0
    for rel in ("JOINT/steps.csv", "JOINT/eval.csv", "ORTHO_STRUCTURED/steps.csv",
                "ORTHO_STRUCTURED/eval.csv", "SINGLE_TASK/eval.csv", "config.json"):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_env_var_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("ORTHO_LORA_OUT", str(tmp_path / "envroot"))
    cfg = write_config(tmp_path / "myexp.json", modes=["JOINT"])
    assert run_cli(["run", str(cfg)]) == 0
    assert (tmp_path / "envroot" / "myexp" / "JOINT" / "eval.csv").is_file()


def test_config_output_dir_used(tmp_path):
    rundir = tmp_path / "from_config"
    cfg = write_config(tmp_path / "exp.json", modes=["JOINT"], output_dir=str(rundir))
    assert run_cli(["run", str(cfg)]) == 0
    assert (rundir / "JOINT" / "eval.csv").is_file()


def test_summarize_reference_fixture(tmp_path, capsys):
    # eval CSVs whose tasks reproduce the reference per-task recoveries; the
    # avg rows are the exact task means, as a run writes them. The run has no
    # step: its steps.csv files hold the header alone
    write_config(tmp_path / "config.json", schedule={"epochs": 0, "batch_size": 8},
                 tasks={**TWO_TASKS, "num_tasks": 3})
    values = {
        "SINGLE_TASK": (87.4, 88.1, 94.2),
        "JOINT": (85.9, 86.5, 92.8),
        "ORTHO_STRUCTURED": (87.1, 87.9, 93.9),
    }
    for mode, (t0, t1, t2) in values.items():
        mode_dir = tmp_path / mode
        mode_dir.mkdir()
        avg = fmt(fmean([t0, t1, t2]))
        rows = [f"0,{mode},0,{t0}", f"0,{mode},1,{t1}", f"0,{mode},2,{t2}", f"0,{mode},avg,{avg}"]
        (mode_dir / "eval.csv").write_text("epoch,mode,task,metric\n" + "\n".join(rows) + "\n")
        (mode_dir / "steps.csv").write_text(",".join(STEPS_HEADER) + "\n")
    assert run_cli(["summarize", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "80.0%" in out

    table = summarize_dir(tmp_path)
    rec = table.recovery["ORTHO_STRUCTURED"]
    assert rec["avg"] == pytest.approx(82.2, abs=0.05)  # (3.7 / 3) / 1.5
    assert rec["0"] == pytest.approx(80.0, abs=0.05)
    assert rec["1"] == pytest.approx(87.5, abs=0.05)
    assert rec["2"] == pytest.approx(78.6, abs=0.05)


def test_summarize_empty_dir_exits_2(tmp_path, capsys):
    assert run_cli(["summarize", str(tmp_path)]) == 2
    assert capsys.readouterr().err


def test_sweep_rank_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.json", modes=["JOINT"])
    out = tmp_path / "sweep"
    assert run_cli(["sweep-rank", str(cfg), "--ranks", "4", "2", "--seeds", "1",
                    "--out", str(out)]) == 0
    lines = (out / "rank_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "rank,joint,ortho,delta"
    assert len(lines) == 3
    assert lines[1].startswith("2,") and lines[2].startswith("4,")


def test_sweep_rank_saves_its_config_and_ranks(tmp_path, capsys):
    # a rank table says which config, ranks and seed count it came from
    cfg = write_config(tmp_path / "exp.json", modes=["JOINT"])
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run_cli(["sweep-rank", str(cfg), "--ranks", "4", "2", "--seeds", "1",
                        "--out", str(out)]) == 0
    assert sorted(p.name for p in outs[0].iterdir()) == ["config.json", "rank_sweep.csv",
                                                        "sweep.json"]
    assert load_config(outs[0] / "config.json") == load_config(cfg)
    assert json.loads((outs[0] / "sweep.json").read_text()) == {"ranks": [2, 4], "seeds": 1}
    for name in ("config.json", "sweep.json"):  # deterministic
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_sweep_rank_builds_each_seeds_task_set_once(tmp_path, capsys, monkeypatch):
    # the rank does not change a task set: the check before the directory is
    # made builds one per seed, and every rank of that seed trains on it
    calls = []
    build = trainer_module.make_conflict_set
    monkeypatch.setattr(trainer_module, "make_conflict_set",
                        lambda tasks, rng: calls.append(tasks) or build(tasks, rng))
    cfg = write_config(tmp_path / "exp.json", modes=["JOINT"])
    assert run_cli(["sweep-rank", str(cfg), "--ranks", "2", "4", "--seeds", "2",
                    "--out", str(tmp_path / "sweep")]) == 0
    assert len(calls) == 2


def test_sweep_rank_rows_equal_a_run_per_rank_and_seed_on_a_fresh_task_set(tmp_path, capsys):
    # each (rank, seed) run of the sweep trains on its own seed's task set,
    # summed over seeds in seed order: the bits of a separate run_experiment
    cfg = write_config(tmp_path / "exp.json", modes=["JOINT"])
    out = tmp_path / "sweep"
    assert run_cli(["sweep-rank", str(cfg), "--ranks", "4", "2", "--seeds", "2",
                    "--out", str(out)]) == 0
    config = load_config(cfg)
    for row, rank in zip(summarize_dir(out).rank_rows, [2, 4], strict=True):
        results = [run_experiment(config.with_updates(seed=config.seed + s, rank=rank,
                                                      modes=[JOINT, ORTHO_STRUCTURED]))
                   for s in range(2)]
        joint, ortho = (sum(r.final_average(mode) for r in results) / 2
                        for mode in (JOINT, ORTHO_STRUCTURED))
        assert (row.rank, row.joint.hex(), row.ortho.hex(), row.delta.hex()) == (
            rank, joint.hex(), ortho.hex(), (ortho - joint).hex())


def test_summarize_sweep_dir_prints_the_rank_table_sweep_rank_printed(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.json", modes=["JOINT"])
    out = tmp_path / "sweep"
    assert run_cli(["sweep-rank", str(cfg), "--ranks", "4", "2", "--seeds", "1",
                    "--out", str(out)]) == 0
    swept = capsys.readouterr().out.splitlines()
    assert swept[0] == f"wrote {out / 'rank_sweep.csv'}"
    assert swept[1] == "rank sweep (seed-averaged final metric):" and len(swept) == 5
    assert run_cli(["summarize", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == swept[1:]


def test_summarize_sweep_dir_missing_a_rank_of_its_sweep_json_exits_2(tmp_path, capsys):
    # a table cut at a rank boundary still parses: only sweep.json says it is short
    cfg = write_config(tmp_path / "exp.json", modes=["JOINT"])
    out = tmp_path / "sweep"
    assert run_cli(["sweep-rank", str(cfg), "--ranks", "2", "4", "--seeds", "1",
                    "--out", str(out)]) == 0
    path = out / "rank_sweep.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    assert lines[2].startswith(b"4,")
    path.write_bytes(b"".join(lines[:2]))
    capsys.readouterr()
    assert run_cli(["summarize", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:3: expected '4,…,…,…', got end of file"), err


def test_summarize_mode_without_eval_csv_exits_2(tmp_path, capsys):
    # a mode directory that lost its eval.csv fails; it is not left out of the summary
    cfg = write_config(tmp_path / "exp.json", modes=["SINGLE_TASK", "JOINT"])
    out = tmp_path / "run"
    assert run_cli(["run", str(cfg), "--out", str(out)]) == 0
    (out / "JOINT" / "eval.csv").unlink()
    capsys.readouterr()
    assert run_cli(["summarize", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: missing {out / 'JOINT' / 'eval.csv'}" in err
    assert "Traceback" not in err


def test_summarize_directory_named_after_no_mode_exits_2(tmp_path, capsys):
    # a copy of JOINT/ named Joint/ would print as a fifth mode beside JOINT
    cfg = write_config(tmp_path / "exp.json", modes=["SINGLE_TASK", "JOINT"])
    out = tmp_path / "run"
    assert run_cli(["run", str(cfg), "--out", str(out)]) == 0
    copy = out / "Joint"
    shutil.copytree(out / "JOINT", copy)
    (copy / "eval.csv").write_text((copy / "eval.csv").read_text().replace(",JOINT,", ",Joint,"))
    capsys.readouterr()
    assert run_cli(["summarize", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {copy}: not a mode of {out / 'config.json'}, which runs only "
                          "SINGLE_TASK, JOINT") and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "sweep-rank"])
@pytest.mark.parametrize("under", [False, True], ids=["the file", "under the file"])
@pytest.mark.parametrize("source", ["--out", "output_dir"])
def test_a_run_directory_on_an_existing_file_exits_2_naming_the_file(
        tmp_path, capsys, command, under, source):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    run_dir = taken / "sub" if under else taken
    if source == "--out":
        cfg, flags = write_config(tmp_path / "exp.json", modes=["JOINT"]), ["--out", str(run_dir)]
    else:
        cfg, flags = write_config(tmp_path / "exp.json", modes=["JOINT"], output_dir=str(run_dir)), []
    sweep = ["--ranks", "2", "--seeds", "1"] if command == "sweep-rank" else []
    assert run_cli([command, str(cfg), *sweep, *flags]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {taken}: a file, not a directory; choose another run directory\n"
    assert taken.read_text() == "not a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json", "taken"]


def test_run_into_a_directory_of_another_run_exits_2_before_writing(tmp_path, capsys):
    # a mode the second config does not run would be summarized beside its modes
    out = tmp_path / "d"
    first = write_config(tmp_path / "a.json", seed=0, modes=["SINGLE_TASK", "JOINT", "ORTHO_FLAT"])
    assert run_cli(["run", str(first), "--out", str(out)]) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    second = write_config(tmp_path / "b.json", seed=7, modes=["SINGLE_TASK", "JOINT"])
    capsys.readouterr()
    assert run_cli(["run", str(second), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'ORTHO_FLAT'}: ") and "Traceback" not in err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    # the same config may run into it again
    assert run_cli(["run", str(first), "--out", str(out)]) == 0
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


TWO_TASKS = {"kind": "classification", "num_tasks": 2, "in_dim": 6, "out_dim": 2,
             "conflict_level": 0.9, "noise_sigma": 0.0, "n_train": 32, "n_eval": 16}
MODEL = {"layer_dims": [6, 6], "rank": 2, "alpha": 4.0, "sigma_init": 0.02}


@pytest.mark.parametrize("first, stale", [
    ({"tasks": {**TWO_TASKS, "num_tasks": 3}}, "SINGLE_TASK/task2_adapter_L0.json"),
    ({"model": {**MODEL, "layer_dims": [6, 6, 6]}}, "JOINT/adapter_L1.json"),
], ids=["fewer tasks", "fewer layers"])
def test_run_into_a_run_with_more_adapter_dumps_exits_2_before_writing(
        tmp_path, capsys, first, stale):
    # the first run's extra dumps would outlive it beside the 2-task, 1-layer run's files
    out = tmp_path / "d"
    assert run_cli(["run", str(write_config(tmp_path / "a.json", **first)), "--out", str(out)]) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert run_cli(["run", str(write_config(tmp_path / "b.json")), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / stale}: ") and "Traceback" not in err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_run_and_sweep_rank_do_not_share_a_directory(tmp_path, capsys):
    # either one's config.json would stop describing the other's files
    cfg = write_config(tmp_path / "exp.json", seed=5, modes=["JOINT"])
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    assert run_cli(["run", str(cfg), "--out", str(run_out)]) == 0
    assert run_cli(["sweep-rank", str(cfg), "--ranks", "2", "--seeds", "1",
                    "--out", str(sweep_out)]) == 0
    trees = {out: {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
             for out in (run_out, sweep_out)}
    other = write_config(tmp_path / "other.json", seed=9, modes=["JOINT"])
    capsys.readouterr()
    assert run_cli(["sweep-rank", str(other), "--ranks", "2", "--seeds", "1",
                    "--out", str(run_out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run_out / 'JOINT'}: ") and "Traceback" not in err
    assert run_cli(["run", str(other), "--out", str(sweep_out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sweep_out / 'rank_sweep.csv'}: ") and "Traceback" not in err
    for out, tree in trees.items():
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == tree


def test_sweep_rank_invalid_rank_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.json", modes=["JOINT"])
    assert run_cli(["sweep-rank", str(cfg), "--ranks", "999", "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert "--ranks 999" in err and "config.model.rank" in err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("args,named,seed", [
    (["--ranks", "0"], "--ranks 0", 5),
    (["--ranks", "2", "7"], "--ranks 7", 5),  # sorts after a valid rank, which must not train first
    (["--ranks", "2", "--seeds", "0"], "--seeds 0", 5),
    (["--ranks", "2", "3", "2"], "--ranks 2", 5),  # a repeated rank would train and write twice
    # seed 0 of the sweep is valid, and seed 1 is past the config's seed range
    (["--ranks", "2", "--seeds", "2"], "--seeds 2: config.seed: must be <=", 2**64 - 1),
], ids=["rank 0", "late bad rank", "seeds 0", "repeated rank", "last seed past the seed range"])
def test_sweep_rank_bad_input_exits_2_before_writing(tmp_path, capsys, args, named, seed):
    cfg = write_config(tmp_path / "exp.json", modes=["JOINT"], seed=seed)
    out = tmp_path / "s"
    assert run_cli(["sweep-rank", str(cfg), *args, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_validate_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(b'{"version": 1, "seed": 0, "note": "caf\xe9"}')
    assert run_cli(["validate", str(cfg)]) == 2
    assert str(cfg) in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                         ids=["NaN", "Infinity", "-Infinity", "integer past the float range"])
def test_validate_non_finite_number_exits_2(tmp_path, capsys, value):
    cfg = write_config(tmp_path / "exp.json")
    cfg.write_text(cfg.read_text().replace('"lr_base": 0.01', f'"lr_base": {value}'))
    assert run_cli(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config.optimizer.lr_base" in err and "finite" in err


def _eval_rows(mode, tasks=("0", "1", "avg"), epoch=1):
    return [f"{epoch},{mode},{t},0.5" for t in tasks]


def _conflict(step, i, j, block, dot="0.5", cosine="0.5", conflicted="0", scope="PER_MATRIX"):
    return f"{step},,,,{scope},{i},{j},{block},{dot},{cosine},{conflicted}"


def _losses(step):
    """A run's loss rows of one step, for 2 tasks."""
    return [f"{step},{task},0.5,0.01,,,,,,," for task in (0, 1)]


LOSS = "0,0,0.5,0.01,,,,,,,"
STEP_0 = [_conflict(0, 0, 1, "L0.A"), _conflict(0, 0, 1, "L0.B")]  # a run's rows for 2 tasks
EVAL_0 = _eval_rows("JOINT", epoch=0)
# the run every case edits: JOINT on 2 tasks and one adapter layer (PER_MATRIX
# blocks L0.A and L0.B), for 2 epochs of one step each
RUN_CONFIG = {"modes": ["JOINT"], "schedule": {"epochs": 2, "batch_size": 8, "steps_per_epoch": 1}}
RUN_FILES = {
    "JOINT/eval.csv": [*EVAL_0, *_eval_rows("JOINT"), *_eval_rows("JOINT", epoch=2)],
    "JOINT/steps.csv": [*_losses(0), *STEP_0, *_losses(1),
                        _conflict(1, 0, 1, "L0.A"), _conflict(1, 0, 1, "L0.B")],
}

# (file, its data rows, where the error must point, a fragment of the message[,
# the header that replaces the file's own]); the run's other files stay valid,
# and a rank_sweep.csv has the sweep.json and config.json of _write_sweep beside it
BAD_RUN_FILES = {
    "non-numeric metric": ("JOINT/eval.csv", [*EVAL_0, "1,JOINT,0,0.5", "1,JOINT,1,abc",
                                              "1,JOINT,avg,0.5"], 6, "'abc'"),
    "short row": ("JOINT/eval.csv", [*EVAL_0, "1,JOINT,0,0.5", "1,JOINT,1", "1,JOINT,avg,0.5"], 6,
                  "fields"),
    "nan metric": ("JOINT/eval.csv", [*EVAL_0, "1,JOINT,0,0.5", "1,JOINT,1,0.5", "1,JOINT,avg,nan"],
                   7, "expected '1,JOINT,avg,0.5', got '1,JOINT,avg,nan'"),
    "nan task metric": ("JOINT/eval.csv", [*EVAL_0, "1,JOINT,0,0.5", "1,JOINT,1,nan",
                                           "1,JOINT,avg,0.5"], 6, "non-finite value 'nan'"),
    "missing final task": ("JOINT/eval.csv", [*EVAL_0, *_eval_rows("JOINT"),
                                              *_eval_rows("JOINT", ("0", "avg"), epoch=2)], 9,
                           "expected '2,JOINT,1,0.5', got '2,JOINT,avg,0.5'"),
    "infinite loss": ("JOINT/steps.csv", ["0,0,inf,0.01,,,,,,,"], 2, "non-finite"),
    "repeated loss row": ("JOINT/steps.csv", [*_losses(0), *STEP_0, LOSS], 6,
                          "expected '1,0,0.5,0.01,,,,,,,', got '0,0,0.5,0.01,,,,,,,'"),
    "loss row of a task eval.csv lacks": ("JOINT/steps.csv", [LOSS, "5,9,0.5,0.01,,,,,,,"], 3,
                                          "expected '0,1,0.5,0.01,,,,,,,', got '5,9,"),
    "loss row step past 64 bits": ("JOINT/steps.csv", [LOSS, f"{2**63},1,0.5,0.01,,,,,,,"], 3,
                                   f"got '{2**63},1,"),
    "second lr in a step": ("JOINT/steps.csv", [LOSS, "0,1,0.5,0.02,,,,,,,"], 3,
                            "expected '0,1,0.5,0.01,,,,,,,', got '0,1,0.5,0.02,,,,,,,'"),
    "skipped steps": ("JOINT/steps.csv",
                      [*_losses(0), *STEP_0, "3,0,0.5,0.01,,,,,,,", "3,1,0.5,0.01,,,,,,,"], 6,
                      "expected '1,0,0.5,0.01,,,,,,,', got '3,0,"),
    "step lacks a task's loss row": ("JOINT/steps.csv", [*_losses(0), *STEP_0, "1,0,0.5,0.01,,,,,,,"],
                                     7, "expected '1,1,…,0.01,,,,,,,', got end of file"),
    "step lacks its conflict rows": ("JOINT/steps.csv", [*_losses(0), *_losses(1)], 4,
                                     "expected '0,,,,PER_MATRIX,0,1,L0.A,,,', got '1,0,0.5,"),
    "steps.csv cut at a step boundary": ("JOINT/steps.csv", [*_losses(0), *STEP_0], 6,
                                         "expected '1,0,…,…,,,,,,,', got end of file"),
    "eval.csv cut at an epoch boundary": ("JOINT/eval.csv", [*EVAL_0, *_eval_rows("JOINT")], 8,
                                          "expected '2,JOINT,0,…', got end of file"),
    "bad rank row": ("rank_sweep.csv", ["2,0.5,0.25,-0.25", "4,0.5,oops,0.1"], 3, "'oops'"),
    "repeated rank": ("rank_sweep.csv", ["2,0.5,0.25,-0.25", "2,0.5,0.25,-0.25"], 3,
                      "expected '4,0.5,0.25,-0.25', got '2,0.5,0.25,-0.25'"),
    "rank delta not ortho - joint": ("rank_sweep.csv", ["2,0.5,0.25,9"], 2,
                                     "expected '2,0.5,0.25,-0.25', got '2,0.5,0.25,9'"),
    "ranks out of order": ("rank_sweep.csv", ["4,0.5,0.75,0.25", "2,0.5,0.25,-0.25"], 2,
                           "expected '2,0.5,0.75,0.25', got '4,0.5,0.75,0.25'"),
    "rank header only": ("rank_sweep.csv", [], 2, "expected '2,…,…,…', got end of file"),
    "rank of sweep.json missing": ("rank_sweep.csv", ["2,0.5,0.25,-0.25"], 3,
                                   "expected '4,…,…,…', got end of file"),
    "rank sweep.json does not list": ("rank_sweep.csv", ["2,0.5,0.25,-0.25", "4,0.5,0.25,-0.25",
                                                         "8,0.5,0.25,-0.25"], 4,
                                      "expected end of file, got '8,0.5,0.25,-0.25'"),
    "rank delta past the float range": ("rank_sweep.csv", ["2,-1e308,1e308,inf"], 2,
                                        "non-finite value 'inf'"),
    "avg past the float range": ("JOINT/eval.csv", [*EVAL_0, "1,JOINT,0,1e308", "1,JOINT,1,1e308",
                                                    "1,JOINT,avg,1e308"], 7, "overflow"),
    "earlier final epoch": ("JOINT/eval.csv", EVAL_0, 5, "expected '1,JOINT,0,…', got end of file"),
    "avg not the task mean": ("JOINT/eval.csv", [*EVAL_0, "1,JOINT,0,0.25", "1,JOINT,1,0.5",
                                                 "1,JOINT,avg,0.5"], 7,
                              "expected '1,JOINT,avg,0.375', got '1,JOINT,avg,0.5'"),
    "header only": ("JOINT/eval.csv", [], 2, "expected '0,JOINT,0,…', got end of file"),
    "repeated eval row": ("JOINT/eval.csv", [*EVAL_0, "1,JOINT,0,0.5", "1,JOINT,1,0.5",
                                             "1,JOINT,0,0.5", "1,JOINT,avg,0.5"], 7,
                          "expected '1,JOINT,avg,0.5', got '1,JOINT,0,0.5'"),
    "eval mode not its directory's": ("JOINT/eval.csv", [*EVAL_0, *_eval_rows("SINGLE_TASK")], 5,
                                      "expected '1,JOINT,0,0.5', got '1,SINGLE_TASK,0,0.5'"),
    "eval task neither id nor avg": ("JOINT/eval.csv", [*EVAL_0, "1,JOINT,0,0.5", "1,JOINT,foo,0.5",
                                                        "1,JOINT,avg,0.5"], 6,
                                     "expected '1,JOINT,1,0.5', got '1,JOINT,foo,0.5'"),
    "eval task row after its epoch's avg": (
        "JOINT/eval.csv", [*EVAL_0, "1,JOINT,0,0.5", "1,JOINT,avg,0.5", "1,JOINT,1,0.25"], 6,
        "expected '1,JOINT,1,0.5', got '1,JOINT,avg,0.5'"),
    "eval epochs out of order": (
        "JOINT/eval.csv", [*_eval_rows("JOINT"), *EVAL_0], 2,
        "expected '0,JOINT,0,0.5', got '1,JOINT,0,0.5'"),
    "eval epoch lacks a task of the first": (
        "JOINT/eval.csv", ["0,JOINT,0,0.5", "0,JOINT,1,0.5", "0,JOINT,avg,0.5", "1,JOINT,0,0.5",
                           "1,JOINT,avg,0.5"], 6,
        "expected '1,JOINT,1,0.5', got '1,JOINT,avg,0.5'"),
    "eval epoch lists a task the first does not": (
        "JOINT/eval.csv", ["0,JOINT,0,0.5", "0,JOINT,1,0.5", "0,JOINT,avg,0.5", "1,JOINT,0,0.5",
                           "1,JOINT,2,0.5"], 6, "expected '1,JOINT,1,0.5', got '1,JOINT,2,0.5'"),
    "eval epoch before the last one's avg": (
        "JOINT/eval.csv", ["0,JOINT,0,0.5", "0,JOINT,1,0.5", *_eval_rows("JOINT")], 4,
        "expected '0,JOINT,avg,0.5', got '1,JOINT,0,0.5'"),
    "eval final epoch without avg": ("JOINT/eval.csv", [*EVAL_0, *_eval_rows("JOINT", ("0", "1"))],
                                     7, "expected '1,JOINT,avg,0.5', got end of file"),
    "conflicted not 0 or 1": (
        "JOINT/steps.csv", [*_losses(0), _conflict(0, 0, 1, "L0.A", "-0.5", "0.5", "7"), STEP_0[1]],
        4, "expected '0,,,,PER_MATRIX,0,1,L0.A,-0.5,0.5,1', "
           "got '0,,,,PER_MATRIX,0,1,L0.A,-0.5,0.5,7'"),
    "conflicted disagrees with dot": (
        "JOINT/steps.csv", [*_losses(0), _conflict(0, 0, 1, "L0.A", "0.5", "0.5", "1"), STEP_0[1]],
        4, "expected '0,,,,PER_MATRIX,0,1,L0.A,0.5,0.5,0', "
           "got '0,,,,PER_MATRIX,0,1,L0.A,0.5,0.5,1'"),
    "cosine outside [-1, 1]": (
        "JOINT/steps.csv",
        [*_losses(0), STEP_0[0], _conflict(0, 0, 1, "L0.B", "-0.5", "-1.5", "1")], 5,
        "outside [-1, 1]"),
    "repeated step, pair and block": ("JOINT/steps.csv", [*_losses(0), STEP_0[0], *STEP_0], 5,
                                      "expected '0,,,,PER_MATRIX,0,1,L0.B,0.5,0.5,0', got "
                                      "'0,,,,PER_MATRIX,0,1,L0.A,0.5,0.5,0'"),
    "pair i >= j": (
        "JOINT/steps.csv", [*_losses(0), _conflict(0, 1, 0, "L0.A"), _conflict(0, 1, 0, "L0.B")], 4,
        "expected '0,,,,PER_MATRIX,0,1,L0.A,0.5,0.5,0', got '0,,,,PER_MATRIX,1,0,L0.A,"),
    "block of no scope": ("JOINT/steps.csv", [*_losses(0), STEP_0[0], _conflict(0, 0, 1, "L9.Z")],
                          5, "expected '0,,,,PER_MATRIX,0,1,L0.B,0.5,0.5,0', got "
                             "'0,,,,PER_MATRIX,0,1,L9.Z,"),
    "step rows differ from the first step's": (
        "JOINT/steps.csv", [*_losses(0), *STEP_0, *_losses(1), _conflict(1, 0, 1, "L0.B"),
                            _conflict(1, 0, 1, "L0.A")],
        8, "expected '1,,,,PER_MATRIX,0,1,L0.A,0.5,0.5,0', got '1,,,,PER_MATRIX,0,1,L0.B,"),
    "step lacks a row of the first step's": (
        "JOINT/steps.csv", [*_losses(0), *STEP_0, *_losses(1), _conflict(1, 0, 1, "L0.A"),
                            "2,0,0.5,0.01,,,,,,,"],
        9, "expected '1,,,,PER_MATRIX,0,1,L0.B,,,', got '2,0,0.5,0.01,,,,,,,'"),
    "second scope": ("JOINT/steps.csv", [*_losses(0), *STEP_0, *_losses(1),
                                         _conflict(1, 0, 1, "flat", scope="FLAT")],
                     8, "expected '1,,,,PER_MATRIX,0,1,L0.A,0.5,0.5,0', got '1,,,,FLAT,"),
    "steps header": ("JOINT/steps.csv", [LOSS], 1,
                     "expected 'step,task,loss,lr,scope,pair_i,pair_j,block,dot,cosine,"
                     "conflicted', got 'step,task,loss,lr'", "step,task,loss,lr"),
    "steps row field count": ("JOINT/steps.csv", [LOSS, "0,1,0.5,0.01,,,"], 3,
                              "expected 11 fields, got 7"),
    "conflict step after a later step": (
        "JOINT/steps.csv", [*_losses(0), *_losses(1), _conflict(1, 0, 1, "L0.A"),
                            _conflict(1, 0, 1, "L0.B"), *STEP_0],
        4, "expected '0,,,,PER_MATRIX,0,1,L0.A,,,', got '1,0,0.5,0.01,,,,,,,'"),
    "extra conflict row of a new pair": (
        "JOINT/steps.csv", [*_losses(0), *STEP_0, *_losses(1), _conflict(1, 0, 1, "L0.A"),
                            _conflict(1, 0, 1, "L0.B"), _conflict(1, 0, 2, "L0.A")],
        10, "expected end of file, got '1,,,,PER_MATRIX,0,2,L0.A,"),
    "eval header": ("JOINT/eval.csv", _eval_rows("JOINT"), 1,
                    "expected 'epoch,mode,task,metric', got 'epoch,mode,metric'",
                    "epoch,mode,metric"),
}
HEADERS = {"eval.csv": EVAL_HEADER, "steps.csv": STEPS_HEADER, "rank_sweep.csv": RANK_HEADER}
SWEEP = {"ranks": [2, 4], "seeds": 1}


def _write_rows(path, rows, header=None):
    path.parent.mkdir(parents=True, exist_ok=True)
    header = header or ",".join(HEADERS[path.name])
    path.write_text("".join(f"{text}\n" for text in [header, *rows]))


def _write_run(run_dir):
    """A run directory that summarize reads: RUN_CONFIG's config.json and RUN_FILES."""
    run_dir.mkdir(exist_ok=True)
    write_config(run_dir / "config.json", **RUN_CONFIG)
    for rel, rows in RUN_FILES.items():
        _write_rows(run_dir / rel, rows)


def _write_sweep(sweep_dir):
    """A sweep directory that summarize reads: RUN_CONFIG's config.json, SWEEP's
    sweep.json and a rank table of its ranks."""
    write_config(sweep_dir / "config.json", **RUN_CONFIG)
    (sweep_dir / "sweep.json").write_text(json.dumps(SWEEP))
    _write_rows(sweep_dir / "rank_sweep.csv", ["2,0.5,0.25,-0.25", "4,0.5,0.75,0.25"])


def test_the_unedited_run_summarizes(tmp_path, capsys):
    _write_run(tmp_path)
    assert run_cli(["summarize", str(tmp_path)]) == 0
    assert "JOINT" in capsys.readouterr().out


@pytest.mark.parametrize("case", list(BAD_RUN_FILES))
def test_summarize_bad_row_exits_2_naming_path_and_line(tmp_path, capsys, case):
    rel, rows, line, fragment, *header = BAD_RUN_FILES[case]
    if rel == "rank_sweep.csv":
        _write_sweep(tmp_path)
    else:
        _write_run(tmp_path)
    path = tmp_path / rel
    _write_rows(path, rows, *header)
    assert run_cli(["summarize", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{line}:" in err, err
    assert fragment in err, err
    assert "Traceback" not in err


def _remove(path):
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()


# (an edit of a valid run directory, the path the error must name, a fragment
# of the message): the directory's files, not a file's rows, are at fault
BAD_RUN_DIRS = {
    "mode directory the config does not list": (
        lambda run: shutil.copytree(run / "JOINT", run / "SINGLE_TASK"), "SINGLE_TASK",
        "not a mode of"),
    "missing config.json": (lambda run: _remove(run / "config.json"), "config.json", "not found"),
    "invalid config.json": (lambda run: (run / "config.json").write_text('{"version": 1}'),
                            "config.json", "config.seed: missing required field"),
    "config mode with no directory": (lambda run: _remove(run / "JOINT"), "JOINT/eval.csv",
                                      "missing"),
    "config mode without steps.csv": (lambda run: _remove(run / "JOINT" / "steps.csv"),
                                      "JOINT/steps.csv", "missing"),
    "sweep directory holding a mode directory": (
        lambda run: _write_rows(run / "rank_sweep.csv", ["2,0.5,0.25,-0.25"]), "JOINT",
        "a mode directory beside"),
}


@pytest.mark.parametrize("case", list(BAD_RUN_DIRS))
def test_summarize_bad_run_directory_exits_2_naming_the_path(tmp_path, capsys, case):
    edit, rel, fragment = BAD_RUN_DIRS[case]
    _write_run(tmp_path)
    edit(tmp_path)
    assert run_cli(["summarize", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / rel}" in err and fragment in err, err
    assert "Traceback" not in err


# (the text of a sweep directory's sweep.json, or None for no file, and the
# message that must follow the file's path): the rank table beside it is valid
BAD_SWEEP_FILES = {
    "missing": (None, "sweep file not found"),
    "invalid JSON": ("{", "invalid JSON"),
    "not an object": ("[2, 4]", "sweep: expected an object, got list"),
    "unknown field": ('{"ranks": [2, 4], "seeds": 1, "modes": []}',
                      "sweep: unknown field(s) ['modes']"),
    "ranks missing": ('{"seeds": 1}', "sweep.ranks: missing required field"),
    "ranks empty": ('{"ranks": [], "seeds": 1}', "sweep.ranks: expected a non-empty list of ranks"),
    "rank not an integer": ('{"ranks": [2, "4"], "seeds": 1}',
                            "sweep.ranks[1]: expected an integer, got '4'"),
    "rank 0": ('{"ranks": [0, 2], "seeds": 1}', "sweep.ranks[0]: must be >= 1, got 0"),
    "ranks out of order": ('{"ranks": [4, 2], "seeds": 1}',
                           "sweep.ranks: expected ascending ranks with no repeats, got [4, 2]"),
    "repeated rank": ('{"ranks": [2, 2, 4], "seeds": 1}',
                      "sweep.ranks: expected ascending ranks with no repeats, got [2, 2, 4]"),
    "seeds missing": ('{"ranks": [2, 4]}', "sweep.seeds: missing required field"),
    "seeds 0": ('{"ranks": [2, 4], "seeds": 0}', "sweep.seeds: must be >= 1, got 0"),
    "seeds a boolean": ('{"ranks": [2, 4], "seeds": true}',
                        "sweep.seeds: expected an integer, got True"),
}


@pytest.mark.parametrize("case", list(BAD_SWEEP_FILES))
def test_summarize_bad_sweep_json_exits_2_naming_the_file_and_field(tmp_path, capsys, case):
    text, message = BAD_SWEEP_FILES[case]
    _write_sweep(tmp_path)
    path = tmp_path / "sweep.json"
    path.unlink()
    if text is not None:
        path.write_text(text)
    assert run_cli(["summarize", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    want = f"{message}: {path}" if text is None else f"{path}: {message}"
    assert err.startswith(f"error: {want}"), err


# (the text of a sweep directory's config.json, its fields over RUN_CONFIG's,
# or None for no file; the file the error must name; a fragment of the
# message): sweep.json and the rank table beside it are valid
BAD_SWEEP_CONFIGS = {
    "missing config.json": (None, "config.json", "config file not found"),
    "invalid config.json": ('{"version": 1}', "config.json", "config.seed: missing required field"),
    "a rank the config rejects": (
        {"model": {**MODEL, "layer_dims": [6, 3]}}, "sweep.json",
        "sweep.ranks: 4 is rejected by {dir}/config.json: config.model.rank: 4 exceeds min layer "
        "dim 3"),
}


@pytest.mark.parametrize("case", list(BAD_SWEEP_CONFIGS))
def test_summarize_sweep_dir_reads_its_config_json(tmp_path, capsys, case):
    text, named, fragment = BAD_SWEEP_CONFIGS[case]
    _write_sweep(tmp_path)
    path = tmp_path / "config.json"
    path.unlink()
    if isinstance(text, dict):
        write_config(path, **{**RUN_CONFIG, **text})
    elif text is not None:
        path.write_text(text)
    assert run_cli(["summarize", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / named) in err, err
    assert fragment.format(dir=tmp_path) in err and "Traceback" not in err, err
