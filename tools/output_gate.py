#!/usr/bin/env python3
"""Check that this tree's run outputs are byte-identical to a parent revision's.

Usage: python tools/output_gate.py <parent-rev>

Exports <parent-rev> with ``git archive`` into a temporary directory, runs
``ortho-lora run`` on each gate config with that tree's ``src/`` and with
this tree's ``src/``, and compares every file the runs write (CSVs, adapter
dumps, config.json) with ``cmp``. Each tree then runs ``ortho-lora
summarize`` on each of its run directories, and the two trees' stdout and
exit codes are compared. Each tree also runs ``ortho-lora sweep-rank`` with
ranks 2 and 4 and two seeds on the sweep config (two, so that a seed's run
on another seed's task set shows as a byte difference); the two
``rank_sweep.csv`` files are compared with ``cmp``, and the sweep directory is summarized and
compared like a run directory. A parent older than ``summarize`` on sweep
directories exits 2 there, so it fails the gate. Each tree also runs
``ortho-lora summarize`` on damaged copies of its ``default`` and
``many-tasks`` run directories: one copy per edit of ``damage``, each a
fixed change to ORTHO_STRUCTURED's steps.csv (a conflict line deleted, a
conflicted flag flipped, a loss cell set to x, a cosine set to 1.5, the
file cut mid-line, its last line repeated). The two trees' exit codes and
stderr, each tree's temporary root replaced by ``<root>``, are compared
like summaries. Exits 0 when every file, every summary and every
damaged-copy verdict is identical, 1 after listing the files, summaries
or verdicts that differ or that only one tree wrote, and 2 on a usage
error or a revision git cannot export. Under each differing summary or
verdict it prints the two exit codes if they differ and the first line of
output that differs, as each tree printed it. Under each differing CSV it prints the first line
that differs, as each tree wrote it, and, when the two files have the same
rows (the same cells wherever a cell is not a number), the largest relative
difference over their number cells and where it is (``csv_difference``).
This is a report, not a tolerance: any difference still fails the gate.
A summary or a CSV changed by design can then be reviewed from the gate's
output alone. On SIGTERM it exits 143 after killing the running
``ortho-lora`` process and removing its temporary directory.

The gate configs are all built from this tree's configs/default.json:

* default           - as committed, all four modes;
* many-tasks        - 16 tasks, 2 epochs, all four modes;
* mixed-role-orig   - 2-layer [16, 12, 10], rank 3, regression and
                      classification tasks, weight_decay 0.05, 4 epochs,
                      PER_ROLE_CONCAT scope, projection against the original
                      gradients, all four modes;
* mixed-matrix-orig - the same under PER_MATRIX;
* two-tasks-quiet   - 2 tasks with ``record_conflicts`` false, all four
                      modes: JOINT writes no conflict rows, and the ORTHO
                      modes report a single task pair.
* reshuffle         - n_train 40, batch_size 16 and steps_per_epoch 7, so
                      every epoch draws fresh data orders three times
                      mid-epoch; regression and classification tasks, 4
                      epochs, all four modes.
* one-task          - 1 task, conflict_level 0, 2 epochs, all four modes:
                      a gradient row is as wide as the model's parameter
                      vector, SINGLE_TASK's stack has one row, and no mode
                      has a task pair to report.
* batch-one         - the mixed-kind 2-layer config with batch_size 1, 6
                      steps per epoch and 3 epochs, all four modes: every
                      one-column product of a step goes through gemv, not
                      gemm, whose bits may differ from a product over more
                      columns.

The sweep config is configs/default.json with 2 epochs.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALL_MODES = ["SINGLE_TASK", "JOINT", "ORTHO_FLAT", "ORTHO_STRUCTURED"]
SWEEP_RANKS = ["2", "4"]
SWEEP_SEEDS = "2"
RANK_FILE = Path("sweep-rank") / "rank_sweep.csv"
DAMAGED_RUNS = ["default", "many-tasks"]
DAMAGED_FILE = Path("ORTHO_STRUCTURED") / "steps.csv"
ROOT_MARK = "<root>"


def gate_configs(default: dict) -> dict[str, dict]:
    base = copy.deepcopy(default)
    base["modes"] = list(ALL_MODES)
    many = copy.deepcopy(base)
    many["tasks"]["num_tasks"] = 16
    many["schedule"]["epochs"] = 2
    mixed = copy.deepcopy(base)
    mixed["model"].update(layer_dims=[16, 12, 10], rank=3, alpha=6.0)
    mixed["optimizer"]["weight_decay"] = 0.05
    mixed["schedule"]["epochs"] = 4
    mixed["tasks"]["kind"] = ["regression", "classification", "regression"]
    role, matrix = copy.deepcopy(mixed), copy.deepcopy(mixed)
    role["surgery"].update(scope="PER_ROLE_CONCAT", project_against="original")
    matrix["surgery"].update(scope="PER_MATRIX", project_against="original")
    quiet = copy.deepcopy(base)
    quiet["tasks"]["num_tasks"] = 2
    quiet["surgery"]["record_conflicts"] = False
    reshuffle = copy.deepcopy(base)
    reshuffle["tasks"].update(n_train=40, kind=["regression", "classification", "regression"])
    reshuffle["schedule"].update(epochs=4, batch_size=16, steps_per_epoch=7)
    one = copy.deepcopy(base)
    one["tasks"].update(num_tasks=1, conflict_level=0.0)
    one["schedule"]["epochs"] = 2
    batch_one = copy.deepcopy(matrix)
    batch_one["schedule"].update(epochs=3, batch_size=1, steps_per_epoch=6)
    return {"default": base, "many-tasks": many, "mixed-role-orig": role,
            "mixed-matrix-orig": matrix, "two-tasks-quiet": quiet, "reshuffle": reshuffle,
            "one-task": one, "batch-one": batch_one}


def sweep_config(default: dict) -> dict:
    short = copy.deepcopy(default)
    short["schedule"]["epochs"] = 2
    return short


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
    if archive.returncode != 0:
        print(f"git archive {rev} failed: {archive.stderr.decode().strip()}", file=sys.stderr)
        sys.exit(2)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def exit_on_sigterm() -> None:
    """Make SIGTERM raise SystemExit(143), so that ``with`` and ``finally``
    blocks unwind: children are killed and temporary directories removed."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def run_in_session(cmd: list[str], **popen_kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` with the child in a new session. If this process
    unwinds while the child runs (an exception, or SIGTERM after
    ``exit_on_sigterm``), the child's process group is killed, with every
    process the child started in it."""
    with subprocess.Popen(cmd, start_new_session=True, **popen_kwargs) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def run_all(src: Path, configs: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    for cfg in sorted(configs.glob("*.json")):
        run_in_session([sys.executable, "-m", "ortho_lora.cli", "run", str(cfg),
                        "--out", str(out / cfg.stem)], env=env,
                       stdout=subprocess.DEVNULL).check_returncode()


def sweep(src: Path, config: Path, out: Path) -> None:
    run_in_session([sys.executable, "-m", "ortho_lora.cli", "sweep-rank", str(config),
                    "--ranks", *SWEEP_RANKS, "--seeds", SWEEP_SEEDS, "--out", str(out)],
                   env=dict(os.environ, PYTHONPATH=str(src)),
                   stdout=subprocess.DEVNULL).check_returncode()


def summarize_all(src: Path, run_dirs: list[Path], stream: str = "stdout"
                  ) -> dict[str, tuple[int, str]]:
    """(exit code, stdout, or stderr) of ``ortho-lora summarize`` per run directory, by name."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = {}
    for run_dir in run_dirs:
        done = run_in_session([sys.executable, "-m", "ortho_lora.cli", "summarize", str(run_dir)],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out[run_dir.name] = (done.returncode, getattr(done, stream))
    return out


def damage(text: str) -> dict[str, str]:
    """Damaged copies of a steps.csv's text, \\r\\n line ends, by edit name:
    each one fixed edit at the middle conflict or loss line (a conflict line
    leaves the task cell empty), or at the file's end."""
    lines = text.split("\r\n")[:-1]
    rows = [line.split(",") for line in lines]

    def middle(conflict: bool) -> int:
        found = [k for k in range(1, len(rows)) if (rows[k][1] == "") == conflict]
        return found[len(found) // 2]

    def with_cell(k: int, column: int, value: str) -> str:
        cells = [*rows[k][:column], value, *rows[k][column + 1:]]
        return "".join(f"{line}\r\n" for line in [*lines[:k], ",".join(cells), *lines[k + 1:]])

    conflict, loss = middle(True), middle(False)
    return {
        "conflict-line-deleted": "".join(f"{line}\r\n" for k, line in enumerate(lines)
                                         if k != conflict),
        "conflicted-flipped": with_cell(conflict, 10, "1" if rows[conflict][10] == "0" else "0"),
        "loss-x": with_cell(loss, 2, "x"),
        "cosine-1.5": with_cell(conflict, 9, "1.5"),
        "cut-mid-line": text[:sum(len(line) + 2 for line in lines[:conflict])
                             + len(lines[conflict]) // 2],
        "last-line-repeated": f"{text}{lines[-1]}\r\n",
    }


def summarize_damaged(src: Path, runs: Path, root: Path) -> dict[str, tuple[int, str]]:
    """(exit code, stderr) of ``ortho-lora summarize`` on every damaged copy,
    made under root, of runs' DAMAGED_RUNS, by copy name, with root's path
    replaced by ROOT_MARK."""
    copies = []
    for name in DAMAGED_RUNS:
        text = (runs / name / DAMAGED_FILE).read_bytes().decode("utf-8")
        for edit, damaged in damage(text).items():
            copy = root / f"{name}.{edit}"
            shutil.copytree(runs / name, copy)
            (copy / DAMAGED_FILE).write_bytes(damaged.encode("utf-8"))
            copies.append(copy)
    return without_root(summarize_all(src, copies, "stderr"), root)


def without_root(outputs: dict[str, tuple[int, str]], root: Path) -> dict[str, tuple[int, str]]:
    """outputs with root's path replaced by ROOT_MARK in each text."""
    return {name: (code, text.replace(str(root), ROOT_MARK))
            for name, (code, text) in outputs.items()}


def first_line_difference(parent: str, this: str, end: str) -> list[str]:
    """The first line that differs between two texts, from each, line ends
    shown, and end where one text has no more lines; none when they are equal."""
    lines = zip_longest(parent.splitlines(keepends=True), this.splitlines(keepends=True))
    for number, (old, new) in enumerate(lines, 1):
        if old != new:
            return [f"line {number} parent: {end if old is None else repr(old)}",
                    f"line {number} this:   {end if new is None else repr(new)}"]
    return []


def summary_difference(parent: tuple[int, str] | None, this: tuple[int, str] | None) -> list[str]:
    """Where two trees' (exit code, stdout) summaries of one run directory
    differ: that only one tree has it, or the exit codes if they differ and
    the first stdout line that differs, from each tree, line ends shown."""
    if parent is None or this is None:
        return [f"only the {'parent' if this is None else 'this'} tree printed it"]
    notes = [] if parent[0] == this[0] else [f"exit code: parent {parent[0]}, this {this[0]}"]
    return notes + first_line_difference(parent[1], this[1], "end of output")


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def relative_difference(a: float, b: float) -> float:
    """|a - b| over the larger magnitude: 0 for equal values, and inf for
    unequal ones of which either is not finite (a NaN equals nothing)."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def csv_difference(parent: str, this: str) -> list[str]:
    """Where two trees' texts of one CSV differ: the first line that differs,
    from each tree, line ends shown. When both have the same rows (as many
    lines, as many cells in each, and the same text in every cell that is
    not a number in both), also the largest relative difference over the
    number cells, with its line and column. A report, not a tolerance: the
    files still differ. Equal texts have no notes."""
    notes = first_line_difference(parent, this, "end of file")
    if not notes:
        return notes
    old_rows, new_rows = (list(csv.reader(io.StringIO(text))) for text in (parent, this))
    if len(old_rows) != len(new_rows) or any(len(o) != len(n) for o, n in zip(old_rows, new_rows)):
        return notes
    largest, where, cells = 0.0, None, 0
    for number, (old, new) in enumerate(zip(old_rows, new_rows), 1):
        for column, (a, b) in enumerate(zip(old, new)):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    return notes
                continue
            cells += 1
            rel = 0.0 if a == b else relative_difference(x, y)
            if where is None or rel > largest:
                largest, where = rel, (number, column)
    if where is not None:
        notes.append(f"same rows; largest relative difference over {cells} number cells: "
                     f"{largest:.3g} (line {where[0]}, column {old_rows[0][where[1]]})")
    return notes


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/output_gate.py <parent-rev>", file=sys.stderr)
        return 2
    default = json.loads((ROOT / "configs" / "default.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="output_gate_") as tmp:
        tmp = Path(tmp)
        (tmp / "parent").mkdir()
        export(argv[0], tmp / "parent")
        configs = tmp / "configs"
        configs.mkdir()
        for name, raw in gate_configs(default).items():
            (configs / f"{name}.json").write_text(json.dumps(raw), encoding="utf-8")
        sweep_cfg = tmp / "sweep-rank.json"
        sweep_cfg.write_text(json.dumps(sweep_config(default)), encoding="utf-8")
        runs, sweeps, summaries, verdicts = {}, {}, {}, {}
        for label, src in (("parent", tmp / "parent" / "src"), ("this", ROOT / "src")):
            runs[label] = tmp / f"runs_{label}"
            run_all(src, configs, runs[label])
            sweeps[label] = tmp / f"sweeps_{label}"  # apart from runs: not a gate config's
            sweep(src, sweep_cfg, sweeps[label] / RANK_FILE.parent)
            run_dirs = sorted(p for p in runs[label].iterdir() if p.is_dir())
            summaries[label] = summarize_all(src, [*run_dirs, sweeps[label] / RANK_FILE.parent])
            verdicts[label] = summarize_damaged(src, runs[label], tmp / f"damaged_{label}")
        files = {label: {p.relative_to(run) for p in run.rglob("*") if p.is_file()}
                 for label, run in runs.items()}
        differ = sorted(files["parent"] ^ files["this"])
        pairs = [(rel, runs["parent"] / rel, runs["this"] / rel)
                 for rel in sorted(files["parent"] & files["this"])]
        pairs.append((RANK_FILE, sweeps["parent"] / RANK_FILE, sweeps["this"] / RANK_FILE))
        notes = {}  # the differing CSVs' csv_difference, read before tmp goes
        for rel, parent, this in pairs:
            if subprocess.run(["cmp", "-s", str(parent), str(this)]).returncode != 0:
                differ.append(rel)
                if rel.suffix == ".csv":
                    notes[rel] = csv_difference(parent.read_text(encoding="utf-8"),
                                                this.read_text(encoding="utf-8"))
    compared = len(files["parent"] | files["this"]) + 1  # and the sweep's rank_sweep.csv
    run_names = sorted(summaries["parent"].keys() | summaries["this"].keys())
    summaries_differ = [name for name in run_names
                        if summaries["parent"].get(name) != summaries["this"].get(name)]
    copy_names = sorted(verdicts["parent"].keys() | verdicts["this"].keys())
    verdicts_differ = [name for name in copy_names
                       if verdicts["parent"].get(name) != verdicts["this"].get(name)]
    if differ or summaries_differ or verdicts_differ:
        print(f"output gate FAILED against {argv[0]}: {len(differ)} of {compared} files, "
              f"{len(summaries_differ)} of {len(run_names)} summaries and "
              f"{len(verdicts_differ)} of {len(copy_names)} damaged-copy verdicts differ")
        for rel in sorted(differ):
            print(f"  {rel}")
            for note in notes.get(rel, []):
                print(f"    {note}")
        for kind, names, outputs in (("summarize", summaries_differ, summaries),
                                     ("summarize damaged", verdicts_differ, verdicts)):
            for name in names:
                print(f"  {kind} {name}")
                for note in summary_difference(outputs["parent"].get(name),
                                               outputs["this"].get(name)):
                    print(f"    {note}")
        return 1
    print(f"output gate passed against {argv[0]}: all {compared} files byte-identical, "
          f"all {len(run_names)} summarize outputs and all {len(copy_names)} damaged-copy "
          f"verdicts identical on {len(gate_configs(default))} configs and one rank sweep")
    return 0


if __name__ == "__main__":
    exit_on_sigterm()
    sys.exit(main(sys.argv[1:]))
