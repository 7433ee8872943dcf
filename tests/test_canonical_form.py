"""A run file has one canonical form: the lines a run of its directory's
``config.json`` writes.

Reading a run's files back against its config and writing them again
reproduces every byte, on every branch of the rule for which modes write
conflict rows (``conflict_scope``), and ``summarize`` on a run whose file had
one line deleted, duplicated or swapped, or one structural cell changed,
exits 2 naming the file and the first line that differs from the original.
Whatever one edit does to a run file, the readers return what, or raise the
ConfigError that, the readers which render every expected line do.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import reference_read_metrics, reference_read_rank_rows

from ortho_lora.cli import run_cli
from ortho_lora.config import VALID_MODES, config_from_dict, save_config
from ortho_lora.errors import ConfigError
from ortho_lora.model import SCOPES
from ortho_lora.reporting import fmt, read_metrics, read_rank_rows, write_metrics
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


@pytest.fixture(scope="module")
def branch_runs(run_dir, tmp_path_factory):
    """(config, run directory) of CONFIG and of each of BRANCHES."""
    return [(CONFIG, run_dir)] + [(config, write_run(config, tmp_path_factory.mktemp("branch")))
                                  for config in BRANCHES.values()]


# a character to insert or to put in another's place: one that a CSV line or
# a float spells with, a line end, or any other
CHARACTERS = st.one_of(st.sampled_from(list(",.-+0123456789eEx \r\n")), st.characters(codec="utf-8"))
# what an edit puts in a cell: a word, non-finite floats, a negative zero and
# a cosine out of range
CELLS = ["x", "nan", "inf", "1e999", "-0.0", "-1.5"]


def _edit(data, text):
    """text, a run file as written, with one edit drawn from data."""
    edit = data.draw(st.sampled_from(["insert", "delete", "replace", "delete line",
                                      "duplicate line", "swap lines", "cell", "final newline"]))
    if edit in ("insert", "delete", "replace"):
        k = data.draw(st.integers(0, len(text) - (edit != "insert")))
        char = "" if edit == "delete" else data.draw(CHARACTERS)
        return text[:k] + char + text[k + (edit != "insert"):]
    if edit == "final newline":
        return text.removesuffix("\r\n")
    lines = text.split("\r\n")[:-1]
    k = data.draw(st.integers(0, len(lines) - 1))
    if edit == "delete line":
        del lines[k]
    elif edit == "duplicate line":
        lines.insert(k, lines[k])
    elif edit == "swap lines":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[k], lines[j] = lines[j], lines[k]
    else:  # one of the line's non-empty cells
        cells = lines[k].split(",")
        column = data.draw(st.sampled_from([c for c, cell in enumerate(cells) if cell]))
        cells[column] = data.draw(st.sampled_from(CELLS))
        lines[k] = ",".join(cells)
    return "".join(f"{line}\r\n" for line in lines)


def _outcome(read):
    try:
        return read()
    except ConfigError as exc:
        return str(exc)


def check_against_the_rendering_reader(run, mode, config, name, text):
    """read_metrics on run's mode directory with text for its file name
    returns the log, or raises the ConfigError, that the rendering reader does."""
    with tempfile.TemporaryDirectory() as tmp:
        edited = Path(tmp) / mode
        shutil.copytree(run / mode, edited)
        (edited / name).write_bytes(text.encode("utf-8"))
        assert _outcome(lambda: read_metrics(edited, mode, config)) == _outcome(
            lambda: reference_read_metrics(edited, mode, config))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_read_metrics_agrees_with_the_rendering_reader_on_any_one_edit(branch_runs, data):
    config, run = data.draw(st.sampled_from(branch_runs))
    mode = data.draw(st.sampled_from(VALID_MODES))
    name = data.draw(st.sampled_from(["steps.csv", "eval.csv"]))
    text = (run / mode / name).read_bytes().decode("utf-8")
    check_against_the_rendering_reader(run, mode, config, name, _edit(data, text))


RANKS = [(2, 0.5, 0.25), (4, 0.125, 0.75), (8, 1e308, -1e308)]  # the last delta overflows
RANK_TEXT = "".join(f"{line}\r\n" for line in ["rank,joint,ortho,delta", *(
    f"{rank},{joint!r},{ortho!r},{fmt(ortho - joint)}" for rank, joint, ortho in RANKS)])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_read_rank_rows_agrees_with_the_rendering_reader_on_any_one_edit(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("sweep") / "rank_sweep.csv"
    path.write_bytes(_edit(data, RANK_TEXT).encode("utf-8"))
    ranks = [rank for rank, _, _ in RANKS]

    def cells(read):
        rows = _outcome(lambda: read(path, ranks))
        return rows if isinstance(rows, str) else [
            (r.rank, r.joint.hex(), r.ortho.hex(), r.delta.hex()) for r in rows]

    assert cells(read_rank_rows) == cells(reference_read_rank_rows)


@pytest.mark.parametrize("value", CELLS)
@pytest.mark.parametrize("column", [2, 3, 8, 9], ids=["loss", "lr", "dot", "cosine"])
def test_read_metrics_agrees_with_the_rendering_reader_on_each_float_cell(run_dir, column, value):
    """The last line with the column filled, in JOINT's steps.csv, has it set to value."""
    lines = (run_dir / "JOINT" / "steps.csv").read_bytes().decode("utf-8").split("\r\n")
    k = max(n for n, line in enumerate(lines[1:-1], 1) if line.split(",")[column])
    cells = lines[k].split(",")
    cells[column] = value
    lines[k] = ",".join(cells)
    check_against_the_rendering_reader(run_dir, "JOINT", CONFIG, "steps.csv", "\r\n".join(lines))
