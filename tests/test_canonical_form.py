"""A run file has one canonical form: the lines a run of its directory's
``config.json`` writes.

Reading a run's files back against its config and writing them again
reproduces every byte, on every branch of the rule for which modes write
conflict rows (``conflict_scope``), and ``summarize`` on a run whose file had
one line deleted, duplicated or swapped, or one structural cell changed,
exits 2 naming the file and the first line that differs from the original.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ortho_lora.cli import run_cli
from ortho_lora.config import VALID_MODES, config_from_dict, save_config
from ortho_lora.model import SCOPES
from ortho_lora.reporting import read_metrics, write_metrics
from ortho_lora.trainer import run_experiment

# regression and classification tasks; two adapter layers, so PER_MATRIX
# reports four blocks per pair
RAW = {
    "version": 1,
    "seed": 4,
    "modes": list(VALID_MODES),
    "model": {"layer_dims": [6, 5, 4], "rank": 2, "alpha": 4.0, "sigma_init": 0.02},
    "optimizer": {"lr_base": 0.01},
    "schedule": {"epochs": 2, "batch_size": 8},
    "tasks": {"kind": ["regression", "classification", "regression"], "num_tasks": 3,
              "in_dim": 6, "out_dim": 3, "conflict_level": 0.8, "noise_sigma": 0.0,
              "n_train": 24, "n_eval": 8},
    "surgery": {"scope": "PER_MATRIX"},
}
CONFIG = config_from_dict(RAW)
# each branch of the conflict-row rule beside CONFIG's PER_MATRIX; every
# config runs every mode, so ORTHO_FLAT reports FLAT in each
BRANCHES = {
    "one task": config_from_dict({**RAW, "tasks": {**RAW["tasks"], "kind": ["regression"],
                                                   "num_tasks": 1, "conflict_level": 0.0}}),
    "JOINT record_conflicts off": config_from_dict(
        {**RAW, "surgery": {"scope": "PER_MATRIX", "record_conflicts": False}}),
    "PER_ROLE_CONCAT": config_from_dict({**RAW, "surgery": {"scope": "PER_ROLE_CONCAT"}}),
}
FILES = [f"{mode}/{name}" for mode in VALID_MODES for name in ("steps.csv", "eval.csv")]
BLOCKS = ["L0.A", "L0.B", "L1.A", "L1.B", "L2.A", "flat", "A", "B"]


def write_run(config, out):
    save_config(config, out / "config.json")
    for mode, log in run_experiment(config).logs.items():
        write_metrics(log, out / mode)
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return write_run(CONFIG, tmp_path_factory.mktemp("run"))


def check_round_trip(run, config, out):
    for mode in VALID_MODES:
        write_metrics(read_metrics(run / mode, mode, config), out / mode)
        for name in ("steps.csv", "eval.csv"):
            assert (out / mode / name).read_bytes() == (run / mode / name).read_bytes()


def test_read_then_write_reproduces_every_byte(run_dir, tmp_path):
    check_round_trip(run_dir, CONFIG, tmp_path)


@pytest.mark.parametrize("branch", list(BRANCHES))
def test_read_then_write_reproduces_every_byte_on_each_branch(branch, tmp_path):
    config = BRANCHES[branch]
    check_round_trip(write_run(config, tmp_path), config, tmp_path / "back")


def _changed_cell(data, rel, cells):
    """cells with one step, task, epoch, scope, pair, block, conflicted or avg
    cell changed."""
    if rel.endswith("steps.csv"):
        columns = [0, 1] if cells[1] else [0, 4, 5, 6, 7, 10]
    else:
        columns = [0, 2, 3] if cells[2] == "avg" else [0, 2]
    column = data.draw(st.sampled_from(columns))
    old = cells[column]
    if column == 4:
        new = data.draw(st.sampled_from([s for s in SCOPES if s != old]))
    elif column == 7:
        new = data.draw(st.sampled_from([b for b in BLOCKS if b != old]))
    elif column == 10:
        new = "0" if old == "1" else "1"
    elif column == 3:  # the avg row's metric
        new = repr(float(old) + data.draw(st.sampled_from([-1.0, 0.5, 2.0])))
    elif old == "avg":
        new = str(data.draw(st.integers(0, 9)))
    else:
        new = str(int(old) + data.draw(st.sampled_from([-1, 1, 2])))
    return [*cells[:column], new, *cells[column + 1:]]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_summarize_names_the_first_line_an_edit_changed(run_dir, data):
    rel = data.draw(st.sampled_from(FILES))
    original = (run_dir / rel).read_text(encoding="utf-8").splitlines()
    lines = list(original)
    edit = data.draw(st.sampled_from(["delete", "duplicate", "swap", "cell"]))
    k = data.draw(st.integers(0 if edit != "cell" else 1, len(lines) - 1))
    if edit == "delete":
        del lines[k]
    elif edit == "duplicate":
        lines.insert(k, lines[k])
    elif edit == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[k], lines[j] = lines[j], lines[k]
    else:
        lines[k] = ",".join(_changed_cell(data, rel, lines[k].split(",")))
    assume(lines != original)
    first = next((n for n, (a, b) in enumerate(zip(lines, original), 1) if a != b),
                 min(len(lines), len(original)) + 1)
    with tempfile.TemporaryDirectory() as tmp:
        edited = Path(tmp) / "run"
        shutil.copytree(run_dir, edited)
        (edited / rel).write_text("".join(f"{line}\r\n" for line in lines), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli(["summarize", str(edited)])
    assert code == 2
    assert err.getvalue().startswith(f"error: {edited / rel}:{first}: "), err.getvalue()
