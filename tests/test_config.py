"""Every ``config_from_dict`` error, each on a config with one fault, pinned to its message.

Each case edits ``configs/default.json``: a dotted path is set to a value,
or removed (``DROP``). The error must name the field, exactly as below.
"""

import copy
import importlib
import json
import sys
from pathlib import Path

import pytest

from ortho_lora.cli import run_cli
from ortho_lora.config import check_array_sizes, config_from_dict, load_config, save_config
from ortho_lora.errors import ConfigError
from ortho_lora.reporting import sweep_configs

ROOT = Path(__file__).resolve().parents[1]
DEFAULT = json.loads((ROOT / "configs" / "default.json").read_text(encoding="utf-8"))
DROP = object()

MODES = "['SINGLE_TASK', 'JOINT', 'ORTHO_FLAT', 'ORTHO_STRUCTURED']"
KINDS = "['regression', 'classification']"


def faulty(edits: dict[str, object]) -> dict:
    raw = copy.deepcopy(DEFAULT)
    for dotted, value in edits.items():
        *parents, key = dotted.split(".")
        section = raw
        for name in parents:
            section = section[name]
        if value is DROP:
            del section[key]
        else:
            section[key] = value
    return raw


# id: (edits to configs/default.json, the whole error message)
CASES = {
    # the root
    "unknown root field": ({"note": "x"}, "config: unknown field(s) ['note']"),
    "version missing": ({"version": DROP}, "config.version: missing required field"),
    "version a string": ({"version": "1"}, "config.version: expected an integer, got '1'"),
    "version not 1": ({"version": 2}, "config.version: expected 1, got 2"),
    "seed missing": ({"seed": DROP}, "config.seed: missing required field"),
    "seed a boolean": ({"seed": True}, "config.seed: expected an integer, got True"),
    "seed a float": ({"seed": 1.0}, "config.seed: expected an integer, got 1.0"),
    "seed negative": ({"seed": -1}, "config.seed: must be >= 0, got -1"),
    "seed past 64 bits": ({"seed": 2**64},
                          f"config.seed: must be <= {2**64 - 1}, got {2**64}"),
    "modes missing": ({"modes": DROP}, "config.modes: missing required field"),
    "modes a string": ({"modes": "JOINT"},
                       "config.modes: expected a non-empty list of mode names"),
    "modes empty": ({"modes": []}, "config.modes: expected a non-empty list of mode names"),
    "mode not a string": ({"modes": ["JOINT", 3]}, "config.modes[1]: expected a string, got 3"),
    "mode unknown": ({"modes": ["JOINT", "ORTHO"]},
                     f"config.modes[1]: must be one of {MODES}, got 'ORTHO'"),
    "mode repeated": ({"modes": ["JOINT", "JOINT"]}, "config.modes: duplicate modes"),
    "output_dir not a string": ({"output_dir": 3},
                                "config.output_dir: expected a string path, got 3"),
    # model
    "model missing": ({"model": DROP}, "config.model: missing required field"),
    "model not an object": ({"model": [16, 16]}, "config.model: expected an object, got list"),
    "unknown model field": ({"model.depth": 2}, "config.model: unknown field(s) ['depth']"),
    "layer_dims missing": ({"model.layer_dims": DROP},
                           "config.model.layer_dims: missing required field"),
    "layer_dims not a list": ({"model.layer_dims": 16},
                              "config.model.layer_dims: expected a list of 2-4 dims (1-3 layers)"),
    "layer_dims one dim": ({"model.layer_dims": [16]},
                           "config.model.layer_dims: expected a list of 2-4 dims (1-3 layers)"),
    "layer_dims five dims": ({"model.layer_dims": [16] * 5},
                             "config.model.layer_dims: expected a list of 2-4 dims (1-3 layers)"),
    "layer dim a float": ({"model.layer_dims": [16, 16.0]},
                          "config.model.layer_dims[1]: expected an integer, got 16.0"),
    "layer dim zero": ({"model.layer_dims": [16, 0]},
                       "config.model.layer_dims[1]: must be >= 1, got 0"),
    "rank missing": ({"model.rank": DROP}, "config.model.rank: missing required field"),
    "rank a string": ({"model.rank": "4"}, "config.model.rank: expected an integer, got '4'"),
    "rank zero": ({"model.rank": 0}, "config.model.rank: must be >= 1, got 0"),
    "rank past the dims": ({"model.layer_dims": [16, 12, 16], "model.rank": 13},
                           "config.model.rank: 13 exceeds min layer dim 12"),
    "alpha missing": ({"model.alpha": DROP}, "config.model.alpha: missing required field"),
    "alpha a string": ({"model.alpha": "16"}, "config.model.alpha: expected a number, got '16'"),
    "alpha zero": ({"model.alpha": 0}, "config.model.alpha: must be > 0.0, got 0.0"),
    "sigma_init missing": ({"model.sigma_init": DROP},
                           "config.model.sigma_init: missing required field"),
    "sigma_init negative": ({"model.sigma_init": -0.02},
                            "config.model.sigma_init: must be > 0.0, got -0.02"),
    "sigma_init nan": ({"model.sigma_init": float("nan")},
                       "config.model.sigma_init: expected a finite number, got nan"),
    # optimizer
    "optimizer not an object": ({"optimizer": []},
                                "config.optimizer: expected an object, got list"),
    "unknown optimizer field": ({"optimizer.momentum": 0.9},
                                "config.optimizer: unknown field(s) ['momentum']"),
    "lr_base negative": ({"optimizer.lr_base": -0.01},
                         "config.optimizer.lr_base: must be >= 0.0, got -0.01"),
    "lr_base infinite": ({"optimizer.lr_base": float("inf")},
                         "config.optimizer.lr_base: expected a finite number, got inf"),
    "beta1 negative": ({"optimizer.beta1": -0.1},
                       "config.optimizer.beta1: must be >= 0.0, got -0.1"),
    "beta1 one": ({"optimizer.beta1": 1}, "config.optimizer.beta1: must be < 1, got 1.0"),
    "beta2 above one": ({"optimizer.beta2": 1.5},
                        "config.optimizer.beta2: must be < 1, got 1.5"),
    "eps zero": ({"optimizer.eps": 0.0}, "config.optimizer.eps: must be > 0.0, got 0.0"),
    "weight_decay a boolean": ({"optimizer.weight_decay": False},
                               "config.optimizer.weight_decay: expected a number, got False"),
    # schedule
    "schedule missing": ({"schedule": DROP}, "config.schedule: missing required field"),
    "schedule not an object": ({"schedule": 31},
                               "config.schedule: expected an object, got int"),
    "unknown schedule field": ({"schedule.warmup": 1},
                               "config.schedule: unknown field(s) ['warmup']"),
    "epochs missing": ({"schedule.epochs": DROP},
                       "config.schedule.epochs: missing required field"),
    "epochs negative": ({"schedule.epochs": -1}, "config.schedule.epochs: must be >= 0, got -1"),
    "batch_size missing": ({"schedule.batch_size": DROP},
                           "config.schedule.batch_size: missing required field"),
    "batch_size zero": ({"schedule.batch_size": 0},
                        "config.schedule.batch_size: must be >= 1, got 0"),
    "batch_size past n_train": ({"schedule.batch_size": 481},
                                "config.schedule.batch_size: 481 exceeds tasks.n_train=480"),
    "steps_per_epoch a float": ({"schedule.steps_per_epoch": 2.5},
                                "config.schedule.steps_per_epoch: expected an integer, got 2.5"),
    "steps_per_epoch zero": ({"schedule.steps_per_epoch": 0},
                             "config.schedule.steps_per_epoch: must be >= 1, got 0"),
    # tasks
    "tasks missing": ({"tasks": DROP}, "config.tasks: missing required field"),
    "tasks not an object": ({"tasks": "regression"},
                            "config.tasks: expected an object, got str"),
    "unknown tasks field": ({"tasks.labels": 3}, "config.tasks: unknown field(s) ['labels']"),
    "kind missing": ({"tasks.kind": DROP}, "config.tasks.kind: missing required field"),
    "kind a number": ({"tasks.kind": 3}, "config.tasks.kind: expected a string, got 3"),
    "kind unknown": ({"tasks.kind": "ranking"},
                     f"config.tasks.kind: must be one of {KINDS}, got 'ranking'"),
    "kind list entry unknown": ({"tasks.kind": ["regression", "ranking", "regression"]},
                                f"config.tasks.kind[1]: must be one of {KINDS}, got 'ranking'"),
    "kind list empty": ({"tasks.kind": [], "tasks.num_tasks": DROP},
                        "config.tasks.kind: at least one task required"),
    "num_tasks not the kind list's length": (
        {"tasks.kind": ["regression", "classification"]},
        "config.tasks.num_tasks: does not match length of kind list"),
    "num_tasks a string beside a kind list": (
        {"tasks.kind": ["regression"] * 3, "tasks.num_tasks": "3"},
        "config.tasks.num_tasks: expected an integer, got '3'"),
    "num_tasks missing beside one kind": (
        {"tasks.num_tasks": DROP},
        "config.tasks.num_tasks: required when kind is a single string"),
    "num_tasks zero": ({"tasks.num_tasks": 0}, "config.tasks.num_tasks: must be >= 1, got 0"),
    "in_dim missing": ({"tasks.in_dim": DROP}, "config.tasks.in_dim: missing required field"),
    "in_dim zero": ({"tasks.in_dim": 0}, "config.tasks.in_dim: must be >= 1, got 0"),
    "in_dim not layer_dims[0]": (
        {"tasks.in_dim": 8}, "config.tasks.in_dim: 8 does not match model.layer_dims[0]=16"),
    "out_dim missing": ({"tasks.out_dim": DROP}, "config.tasks.out_dim: missing required field"),
    "out_dim zero": ({"tasks.out_dim": 0}, "config.tasks.out_dim: must be >= 1, got 0"),
    "one class": ({"tasks.kind": ["regression", "classification", "regression"],
                   "tasks.out_dim": 1},
                  "config.tasks.out_dim: classification needs >= 2 classes"),
    # a class needs a count >= MIN_CLASS_FRACTION * n: 11 classes of 3 do not fit 30
    "eval pool too small for its classes": (
        {"tasks.kind": ["regression", "classification", "regression"], "tasks.out_dim": 8,
         "tasks.n_eval": 5},
        "config.tasks.n_eval: 5 examples cannot hold 8 classes of >= 10% each"),
    "train pool too small for its classes": (
        {"tasks.kind": "classification", "tasks.out_dim": 11, "tasks.n_train": 30},
        "config.tasks.n_train: 30 examples cannot hold 11 classes of >= 10% each"),
    "noiseless rank-1 teacher": (
        {"tasks.kind": "classification", "tasks.out_dim": 3, "tasks.shared_scale": 0.0},
        "config.tasks.shared_scale: 0 with noise_sigma 0 gives a rank-1 teacher of at most 2 "
        "argmax labels, not out_dim=3 classes"),
    "noiseless zero teacher": (
        {"tasks.kind": "classification", "tasks.out_dim": 2, "tasks.shared_scale": 0.0,
         "tasks.conflict_level": 0.0},
        "config.tasks.shared_scale: 0 with noise_sigma 0 gives a rank-1 teacher of at most 1 "
        "argmax labels, not out_dim=2 classes"),
    "conflict_level negative": ({"tasks.conflict_level": -0.1},
                                "config.tasks.conflict_level: must be >= 0.0, got -0.1"),
    "conflict_level above one": ({"tasks.conflict_level": 1.5},
                                 "config.tasks.conflict_level: must be <= 1, got 1.5"),
    "conflict with one task": ({"tasks.num_tasks": 1},
                               "config.tasks.num_tasks: conflict_level > 0 needs at least 2 tasks"),
    "noise_sigma negative": ({"tasks.noise_sigma": -1.0},
                             "config.tasks.noise_sigma: must be >= 0.0, got -1.0"),
    "shared_scale a string": ({"tasks.shared_scale": "0.35"},
                              "config.tasks.shared_scale: expected a number, got '0.35'"),
    "shared_scale negative": ({"tasks.shared_scale": -0.35},
                              "config.tasks.shared_scale: must be >= 0.0, got -0.35"),
    "n_train missing": ({"tasks.n_train": DROP}, "config.tasks.n_train: missing required field"),
    "n_train zero": ({"tasks.n_train": 0}, "config.tasks.n_train: must be >= 1, got 0"),
    "n_eval missing": ({"tasks.n_eval": DROP}, "config.tasks.n_eval: missing required field"),
    "n_eval zero": ({"tasks.n_eval": 0}, "config.tasks.n_eval: must be >= 1, got 0"),
    "n_eval past 63 bits": ({"tasks.n_eval": 2**70},
                            f"config.tasks.n_eval: must be <= {2**63 - 1}, got {2**70}"),
    "num_tasks past 63 bits": ({"tasks.num_tasks": 2**63},
                               f"config.tasks.num_tasks: must be <= {2**63 - 1}, got {2**63}"),
    "epochs past 63 bits": ({"schedule.epochs": 2**63},
                            f"config.schedule.epochs: must be <= {2**63 - 1}, got {2**63}"),
    # surgery
    "surgery not an object": ({"surgery": "PER_MATRIX"},
                              "config.surgery: expected an object, got str"),
    "unknown surgery field": ({"surgery.order": "fixed"},
                              "config.surgery: unknown field(s) ['order']"),
    "scope FLAT": ({"surgery.scope": "FLAT"},
                   "config.surgery.scope: must be one of ['PER_MATRIX', 'PER_ROLE_CONCAT'], "
                   "got 'FLAT'"),
    "project_against mutated": (
        {"surgery.project_against": "mutated"},
        "config.surgery.project_against: must be one of ['original'], got 'mutated'"),
    "project_against not a string": (
        {"surgery.project_against": 0},
        "config.surgery.project_against: expected a string, got 0"),
    "record_conflicts a number": ({"surgery.record_conflicts": 1},
                                  "config.surgery.record_conflicts: expected a boolean, got 1"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_each_fault_fails_naming_its_field(case):
    edits, message = CASES[case]
    with pytest.raises(ConfigError) as info:
        config_from_dict(faulty(edits))
    assert str(info.value) == message


def test_integer_fields_hold_63_bits():
    # every integer field but seed ends at 2**63 - 1: the bound, not the size, is checked
    config = config_from_dict(faulty({"schedule.epochs": 2**63 - 1}))
    assert config.schedule.epochs == 2**63 - 1


@pytest.mark.parametrize("edits,field", [
    ({"tasks.n_train": 2**62}, "tasks.n_train"),
    ({"tasks.n_eval": 2**62}, "tasks.n_eval"),
    ({"model.layer_dims": [2**40, 2**40], "tasks.in_dim": 2**40, "model.rank": 1},
     "model.layer_dims"),
    ({"model.layer_dims": [2**60, 16], "tasks.in_dim": 2**60}, "model.layer_dims"),
    ({"tasks.out_dim": 2**60}, "tasks.out_dim"),
    ({"schedule.epochs": 2**60}, "schedule.epochs"),
    ({"schedule.steps_per_epoch": 2**60}, "schedule.steps_per_epoch"),
])
def test_an_array_numpy_cannot_size_names_its_field(edits, field):
    config = config_from_dict(faulty(edits))  # each value within its own bound
    with pytest.raises(ConfigError, match=rf"^config\.{field}: a run of this config needs "):
        check_array_sizes(config)


def test_the_size_check_stops_at_numpy_bound():
    # a task's (n_train + n_eval) * 16 drawn entries of 8 bytes: 2**63 - 128
    # bytes pass, 2**63 do not
    fits = 2**56 - 1 - DEFAULT["tasks"]["n_train"]
    check_array_sizes(config_from_dict(faulty({"tasks.n_eval": fits})))
    with pytest.raises(ConfigError, match=r"^config\.tasks\.n_eval: "):
        check_array_sizes(config_from_dict(faulty({"tasks.n_eval": fits + 1})))
    check_array_sizes(config_from_dict(DEFAULT))


def test_root_not_an_object():
    with pytest.raises(ConfigError) as info:
        config_from_dict([DEFAULT])
    assert str(info.value) == "config: expected an object, got list"


def test_default_passes_and_optional_sections_take_their_defaults():
    config = config_from_dict(faulty({"optimizer": DROP, "surgery": DROP, "output_dir": DROP}))
    assert config.optimizer == config_from_dict(faulty({"optimizer": {}})).optimizer
    assert (config.surgery.scope, config.surgery.project_against,
            config.surgery.record_conflicts) == ("PER_MATRIX", "original", True)


def test_validate_rejects_the_mutated_rule_naming_the_field(tmp_path, capsys):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(faulty({"surgery.project_against": "mutated"})))
    assert run_cli(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: config.surgery.project_against: must be one of ['original']" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def output_gate():
    tools = str(ROOT / "tools")
    sys.path.insert(0, tools)
    try:
        yield importlib.import_module("output_gate")
    finally:
        sys.path.remove(tools)


def test_every_gate_config_is_valid(output_gate):
    configs = output_gate.gate_configs(DEFAULT)
    assert len(configs) == 8
    for name, raw in configs.items():
        config = config_from_dict(raw)
        assert config.modes == output_gate.ALL_MODES, name


def test_gate_sweep_config_is_valid_at_every_sweep_rank(output_gate):
    config = config_from_dict(output_gate.sweep_config(DEFAULT))
    for rank in output_gate.SWEEP_RANKS:
        assert config.with_updates(rank=int(rank)).model.rank == int(rank)
    ranks = [int(rank) for rank in output_gate.SWEEP_RANKS]  # and its every seed
    assert len(sweep_configs(config, ranks, int(output_gate.SWEEP_SEEDS))) == len(ranks)


@pytest.mark.parametrize("name", ["default.json", "no_conflict.json"])
def test_committed_config_resaves_byte_identical(tmp_path, name):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_config(load_config(ROOT / "configs" / name), first)
    save_config(load_config(first), second)
    assert second.read_bytes() == first.read_bytes()
    assert json.loads(first.read_text())["surgery"]["project_against"] == "original"
