import json
from pathlib import Path
from statistics import fmean

import pytest

from ortho_lora.cli import run_cli
from ortho_lora.reporting import fmt


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
    # avg rows are the exact task means, as a run writes them
    values = {
        "SINGLE_TASK": (87.4, 88.1, 94.2),
        "JOINT": (85.9, 86.5, 92.8),
        "ORTHO_STRUCTURED": (87.1, 87.9, 93.9),
    }
    for mode, (t0, t1, t2) in values.items():
        mode_dir = tmp_path / mode
        mode_dir.mkdir()
        avg = fmt(fmean([t0, t1, t2]))
        rows = [f"1,{mode},0,{t0}", f"1,{mode},1,{t1}", f"1,{mode},2,{t2}", f"1,{mode},avg,{avg}"]
        (mode_dir / "eval.csv").write_text("epoch,mode,task,metric\n" + "\n".join(rows) + "\n")
    assert run_cli(["summarize", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "80.0%" in out

    from ortho_lora import summarize_dir

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


def test_sweep_rank_invalid_rank_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.json", modes=["JOINT"])
    assert run_cli(["sweep-rank", str(cfg), "--ranks", "999", "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err


def test_validate_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(b'{"version": 1, "seed": 0, "note": "caf\xe9"}')
    assert run_cli(["validate", str(cfg)]) == 2
    assert str(cfg) in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_validate_non_finite_number_exits_2(tmp_path, capsys, value):
    cfg = write_config(tmp_path / "exp.json")
    cfg.write_text(cfg.read_text().replace('"lr_base": 0.01', f'"lr_base": {value}'))
    assert run_cli(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config.optimizer.lr_base" in err and "finite" in err


def _eval_rows(mode, tasks=("0", "1", "avg")):
    return [f"1,{mode},{t},0.5" for t in tasks]


# (file, its data rows, where the error must point); the other files stay valid
BAD_RUN_FILES = {
    "non-numeric metric": ("JOINT/eval.csv", ["1,JOINT,0,0.5", "1,JOINT,1,abc", "1,JOINT,avg,0.5"], 3),
    "short row": ("JOINT/eval.csv", ["1,JOINT,0,0.5", "1,JOINT,1", "1,JOINT,avg,0.5"], 3),
    "nan metric": ("JOINT/eval.csv", ["1,JOINT,0,0.5", "1,JOINT,1,0.5", "1,JOINT,avg,nan"], 4),
    "missing final task": ("JOINT/eval.csv", _eval_rows("JOINT", ("0", "avg")), None),
    "infinite loss": ("JOINT/steps.csv", ["0,0,inf,0.01,,,,,,,"], 2),
    "bad rank row": ("rank_sweep.csv", ["2,0.5,0.4,-0.1", "4,0.5,oops,0.1"], 3),
    "earlier final epoch": ("JOINT/eval.csv", [f"0,JOINT,{t},0.5" for t in ("0", "1", "avg")],
                            None),
    "avg not the task mean": ("JOINT/eval.csv", ["1,JOINT,0,0.25", "1,JOINT,1,0.5",
                                                 "1,JOINT,avg,0.5"], 4),
}


@pytest.mark.parametrize("case", list(BAD_RUN_FILES))
def test_summarize_bad_row_exits_2_naming_path_and_line(tmp_path, capsys, case):
    from ortho_lora.reporting import EVAL_HEADER, RANK_HEADER, STEPS_HEADER

    headers = {"eval.csv": EVAL_HEADER, "steps.csv": STEPS_HEADER, "rank_sweep.csv": RANK_HEADER}
    for mode in ("SINGLE_TASK", "JOINT"):
        (tmp_path / mode).mkdir()
        (tmp_path / mode / "eval.csv").write_text(
            ",".join(EVAL_HEADER) + "\n" + "\n".join(_eval_rows(mode)) + "\n")
    rel, rows, line = BAD_RUN_FILES[case]
    path = tmp_path / rel
    path.write_text(",".join(headers[path.name]) + "\n" + "\n".join(rows) + "\n")
    assert run_cli(["summarize", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert (f"{path}:{line}:" if line else f"{path}:") in err, err
    assert "Traceback" not in err
