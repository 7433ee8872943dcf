"""``tools/output_gate.py``'s reports under a differing summary or CSV, and the
damaged copies whose summarize verdicts it compares."""

import importlib
import math
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def gate():
    sys.path.insert(0, str(TOOLS))
    try:
        yield importlib.import_module("output_gate")
    finally:
        sys.path.remove(str(TOOLS))


EVAL = "epoch,mode,task,metric\r\n0,JOINT,0,0.5\r\n0,JOINT,avg,0.25\r\n1,JOINT,0,2.0\r\n"


def test_same_rows_report_the_first_line_and_the_largest_relative_difference(gate):
    moved = EVAL.replace("0.25", "0.2500000000000001").replace("2.0", "2.0000000000000004")
    assert gate.csv_difference(EVAL, moved) == [
        "line 3 parent: '0,JOINT,avg,0.25\\r\\n'",
        "line 3 this:   '0,JOINT,avg,0.2500000000000001\\r\\n'",
        "same rows; largest relative difference over 8 number cells: 4.44e-16 (line 3, column metric)",
    ]


def test_a_cell_of_the_same_text_counts_as_no_difference_even_if_nan(gate):
    nan = EVAL.replace("0.5", "nan")
    assert gate.csv_difference(nan, nan.replace("2.0", "2.5"))[-1] == (
        "same rows; largest relative difference over 8 number cells: 0.2 (line 4, column metric)")


@pytest.mark.parametrize("moved, line", [
    (EVAL.replace("avg", "1"), 3),  # a text cell differs
    (EVAL + "1,JOINT,avg,2.0\r\n", 5),  # one more row
    (EVAL.replace("0,JOINT,0,0.5", "0,JOINT,0,0.5,7"), 2),  # one more cell
], ids=["text cell", "extra row", "extra cell"])
def test_other_rows_report_only_the_first_line(gate, moved, line):
    notes = gate.csv_difference(EVAL, moved)
    assert len(notes) == 2 and notes[0].startswith(f"line {line} parent: ")
    assert notes[1].startswith(f"line {line} this:   ")


def test_a_missing_line_reads_end_of_file_and_equal_texts_report_nothing(gate):
    assert gate.csv_difference(EVAL, EVAL[:EVAL.index("1,JOINT")]) == [
        "line 4 parent: '1,JOINT,0,2.0\\r\\n'", "line 4 this:   end of file"]
    assert gate.csv_difference(EVAL, EVAL) == []


def test_relative_difference(gate):
    assert gate.relative_difference(0.0, 0.0) == 0.0
    assert gate.relative_difference(-2.0, -1.0) == 0.5
    assert gate.relative_difference(1.0, math.inf) == math.inf
    assert gate.relative_difference(math.nan, math.nan) == math.inf


def test_summary_difference_names_the_exit_codes_and_the_first_line(gate):
    assert gate.summary_difference((0, "a\nb\n"), (1, "a\nc\n")) == [
        "exit code: parent 0, this 1", "line 2 parent: 'b\\n'", "line 2 this:   'c\\n'"]
    assert gate.summary_difference(None, (0, "")) == ["only the this tree printed it"]


STEPS = ["step,task,loss,lr,scope,pair_i,pair_j,block,dot,cosine,conflicted",
         "0,0,0.5,0.01,,,,,,,", "0,1,0.25,0.01,,,,,,,",
         "0,,,,PER_MATRIX,0,1,L0.A,0.5,0.5,0", "0,,,,PER_MATRIX,0,1,L0.B,-0.5,-0.5,1",
         "1,0,0.5,0.005,,,,,,,", "1,1,0.25,0.005,,,,,,,",
         "1,,,,PER_MATRIX,0,1,L0.A,-0.5,-0.5,1", "1,,,,PER_MATRIX,0,1,L0.B,0.5,0.5,0"]


def _text(lines):
    return "".join(f"{line}\r\n" for line in lines)


def test_damage_edits_the_middle_conflict_and_loss_lines_and_the_end(gate):
    # the conflict lines are 3, 4, 7 and 8 (0-based), the middle one 7; the
    # loss lines 1, 2, 5 and 6, the middle one 5
    text = _text(STEPS)
    cut = len(_text(STEPS[:7])) + len(STEPS[7]) // 2
    assert gate.damage(text) == {
        "conflict-line-deleted": _text(STEPS[:7] + STEPS[8:]),
        "conflicted-flipped": _text([*STEPS[:7], "1,,,,PER_MATRIX,0,1,L0.A,-0.5,-0.5,0", STEPS[8]]),
        "loss-x": _text([*STEPS[:5], "1,0,x,0.005,,,,,,,", *STEPS[6:]]),
        "cosine-1.5": _text([*STEPS[:7], "1,,,,PER_MATRIX,0,1,L0.A,-0.5,1.5,1", STEPS[8]]),
        "cut-mid-line": text[:cut],
        "last-line-repeated": _text([*STEPS, STEPS[-1]]),
    }
    assert text[:cut].endswith("\r\n1,,,,PER_MATRIX,0,")


def test_without_root_marks_the_temporary_root_in_each_verdict(gate):
    root = Path("/tmp/output_gate_x/damaged_this")
    verdicts = {"default.loss-x": (2, f"error: {root}/default.loss-x/ORTHO_STRUCTURED/steps.csv:9: "
                                      f"could not convert string to float: 'x'\n"),
                "default.cut-mid-line": (0, "")}
    assert gate.without_root(verdicts, root) == {
        "default.loss-x": (2, "error: <root>/default.loss-x/ORTHO_STRUCTURED/steps.csv:9: "
                              "could not convert string to float: 'x'\n"),
        "default.cut-mid-line": (0, "")}
