"""Metrics persistence and the summary computations (recovery, rank sweep).

CSV schemas (headers are part of the contract):

* steps.csv: ``step,task,loss,lr,scope,pair_i,pair_j,block,dot,cosine,conflicted``
  Loss rows fill the first four columns; conflict rows fill the rest. The
  empty columns of each row kind stay empty. Each step's loss rows come
  first, then its conflict rows: pair-major, block-minor, one row per
  (i < j) task pair in task-id order and scope group.
* eval.csv:  ``epoch,mode,task,metric`` with one row per task per epoch plus
  an ``avg`` row.
* rank_sweep.csv: ``rank,joint,ortho,delta``, one row per rank.

All floats are serialized with 17 significant digits, which round-trips
float64 exactly, so summaries recomputed from disk match the in-memory ones
bit for bit. steps.csv is written as f-string rows, one chunk per step,
with ``\r\n`` line ends; its reader takes ``\n`` too.

The reader rebuilds the columnar conflict reports of ``surgery`` without an
object per row, and rejects, with a ConfigError naming ``path:line``, every
conflict row no run writes: a non-finite dot or cosine, a cosine outside
[-1, 1] by more than rounding (``COSINE_ROUNDING``), a ``conflicted`` cell
other than 1 for a negative dot and 0 otherwise, a pair with i >= j, a
(step, pair, block) repeated, a block that is not one of the scope's
labels, a second scope, and a conflict step whose (pair, block) rows are
not those of the first conflict step, which must hold every pair of its
tasks. It also rejects a loss row that repeats a (step, task) and a loss
row of a task that eval.csv does not list. An eval.csv row may not repeat
an (epoch, task), name a mode other than its directory's, or a task that is
neither a task id nor ``avg``; epochs ascend, every epoch ends with its
``avg`` row, after its task rows, and lists the first epoch's tasks.
rank_sweep.csv holds at least one rank, and may not repeat one.
Every file is written through ``files.atomic_write``.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations, groupby
from operator import attrgetter
from pathlib import Path
from statistics import fmean

import numpy as np

from .config import JOINT, ORTHO_FLAT, ORTHO_STRUCTURED, SINGLE_TASK, ExperimentConfig
from .errors import ConfigError, ParameterError
from .files import atomic_write
from .model import scope_labels
from .surgery import ConflictReport
from .trainer import AVG_TASK, EvalRecord, MetricsLog, StepRecord, run_experiment

STEPS_HEADER = ["step", "task", "loss", "lr", "scope", "pair_i", "pair_j", "block",
                "dot", "cosine", "conflicted"]
EVAL_HEADER = ["epoch", "mode", "task", "metric"]
RANK_HEADER = ["rank", "joint", "ortho", "delta"]

STEPS_FILE = "steps.csv"
EVAL_FILE = "eval.csv"
RANK_FILE = "rank_sweep.csv"

# How far a written cosine may pass +-1 by rounding, in ulps of 1.0: the
# cosine of two parallel gradients, dot / (||gi|| ||gj||) from one Gram
# matrix, landed at most 10 ulps past 1 over 80,000 random pairs of up to
# 4,096 entries.
COSINE_ROUNDING = 64 * 2.0**-52


def fmt(x: float) -> str:
    return f"{x:.17g}"


def recovery(single: float, joint: float, ortho: float) -> float:
    """Percent of the single-task-to-joint drop that the ortho run regains."""
    if single == joint:
        raise ParameterError(
            f"recovery undefined: single ({single}) equals joint ({joint})"
        )
    return 100.0 * (ortho - joint) / (single - joint)


@dataclass
class RankRow:
    rank: int
    joint: float
    ortho: float
    delta: float


@dataclass
class SummaryTable:
    """Final eval metric per mode/task, plus recovery for each ortho mode."""

    metrics: dict[str, dict[str, float]] = field(default_factory=dict)
    recovery: dict[str, dict[str, float | None]] = field(default_factory=dict)
    rank_rows: list[RankRow] = field(default_factory=list)


def build_summary(logs: dict[str, MetricsLog]) -> SummaryTable:
    table = SummaryTable()
    for mode, log in logs.items():
        table.metrics[mode] = log.final_metrics()
    if SINGLE_TASK in table.metrics and JOINT in table.metrics:
        for mode in (ORTHO_FLAT, ORTHO_STRUCTURED):
            if mode not in table.metrics:
                continue
            cells: dict[str, float | None] = {}
            for task, ortho_val in table.metrics[mode].items():
                single = table.metrics[SINGLE_TASK].get(task)
                joint = table.metrics[JOINT].get(task)
                if single is None or joint is None or single == joint:
                    cells[task] = None
                else:
                    cells[task] = recovery(single, joint, ortho_val)
            table.recovery[mode] = cells
    return table


# --- CSV writing ---


def write_metrics(log: MetricsLog, mode_dir: str | Path) -> None:
    mode_dir = Path(mode_dir)
    mode_dir.mkdir(parents=True, exist_ok=True)
    conflicts_by_step: dict[int, ConflictReport] = {r.step: r for r in log.conflicts}
    # the scope, pair and block cells of each conflict row, per report structure
    middles: dict[tuple, list[str]] = {}

    with atomic_write(mode_dir / STEPS_FILE, newline="") as fh:
        fh.write(",".join(STEPS_HEADER) + "\r\n")
        for step, records in groupby(log.steps, key=lambda rec: rec.step):
            rows = [f"{rec.step},{rec.task},{rec.loss:.17g},{rec.lr:.17g},,,,,,,\r\n"
                    for rec in records]
            report = conflicts_by_step.get(step)
            if report is not None:  # a step's conflict rows follow its loss rows
                key = (report.scope, tuple(report.labels), tuple(report.task_ids))
                if key not in middles:
                    middles[key] = [f",,,,{report.scope},{i},{j},{label},"
                                    for i, j in report.pair_ids() for label in report.labels]
                rows += [f"{step}{middle}{d:.17g},{c:.17g},{'1' if d < 0.0 else '0'}\r\n"
                         for middle, d, c in zip(middles[key], report.dot.ravel().tolist(),
                                                 report.cosine.ravel().tolist())]
            fh.write("".join(rows))

    with atomic_write(mode_dir / EVAL_FILE, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVAL_HEADER)
        for rec in log.evals:
            writer.writerow([rec.epoch, rec.mode, rec.task, fmt(rec.metric)])


def write_rank_rows(rows: list[RankRow], path: str | Path) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RANK_HEADER)
        for r in rows:
            writer.writerow([r.rank, fmt(r.joint), fmt(r.ortho), fmt(r.delta)])


# --- CSV reading ---


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _read_rows(path: Path, header: list[str], parse: Callable[[list[str]], object]) -> list:
    """parse() of every data row; a bad header or row raises ConfigError naming path:line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            if found != header:
                raise ValueError(f"unexpected header {found}")
            out = []
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                out.append(parse(row))
        except ValueError as exc:  # bad numbers, short rows, text that is not UTF-8
            raise ConfigError(f"{path}:{reader.line_num}: {exc}") from None
    return out


def _expected_cells(first: list[list[str]]) -> tuple[list[str], list[int], list[list[str]]]:
    """The labels, the task ids and the per-row (scope, i, j, block) cells of
    the conflict step a run writes for the scope and the tasks that first,
    the cells of a file's first conflict step, names."""
    scope = first[0][0]
    first_pair = next((k for k, cells in enumerate(first) if cells[1:3] != first[0][1:3]),
                      len(first))  # the first pair's rows, one per label
    labels = scope_labels(scope, max(1, (first_pair + 1) // 2))
    ids = sorted({int(cells[c]) for cells in first for c in (1, 2)})
    return labels, ids, [[scope, str(i), str(j), label]
                         for i, j in combinations(ids, 2) for label in labels]


def _row_fault(got: list[str], want: list[list[str]], pos: int, labels: list[str]) -> str:
    """Why the (scope, i, j, block) cells of a conflict row are not want[pos],
    the cells a run writes at that row's place in its step."""
    scope, i, j, block = got
    if int(i) >= int(j):  # first: want is empty when no row of the first step has i < j
        return f"pair ({i}, {j}) is not ordered i < j"
    if scope != want[0][0]:
        return f"second scope {scope!r} in a file of {want[0][0]} rows"
    if block not in labels:
        return f"block {block!r} is not one of the {scope} blocks {labels}"
    if got in want[:pos]:  # the rows above it in its step
        return f"repeats pair ({i}, {j}) block {block} of its step"
    if pos >= len(want):
        return f"a step has {len(want)} conflict rows, and this is one more"
    _, wi, wj, wblock = want[pos]
    return f"pair ({i}, {j}) block {block} where pair ({wi}, {wj}) block {wblock} belongs"


def _check_columns(path: Path, dot: np.ndarray, cosine: np.ndarray, flags: list[str],
                   lines: list[int]) -> None:
    """ConfigError naming path:line at the first conflict row whose dot or cosine
    is not finite, whose cosine is outside [-1, 1] by more than rounding, or
    whose conflicted cell is not 1 for a negative dot and 0 otherwise."""
    checks = [
        (~np.isfinite([dot, cosine]).all(axis=0),
         lambda k: f"non-finite dot {dot[k].item()!r} or cosine {cosine[k].item()!r}"),
        (np.abs(cosine) > 1.0 + COSINE_ROUNDING,
         lambda k: f"cosine {cosine[k].item()!r} is outside [-1, 1]"),
        (np.array(flags) != np.where(dot < 0.0, "1", "0"),
         lambda k: f"conflicted {flags[k]!r} is not {int(dot[k] < 0.0)}, as dot {dot[k].item()!r} "
                   "says"),
    ]
    for bad, message in checks:
        if bad.any():
            k = int(bad.argmax())
            raise ConfigError(f"{path}:{lines[k]}: {message(k)}")


def _read_steps(path: Path, log: MetricsLog) -> list[int]:
    """steps.csv's loss rows into log.steps, its conflict rows into columnar
    log.conflicts; a bad header or row raises ConfigError naming path:line.
    Returns the line of each loss row.

    No (step, task) may have two loss rows. The first conflict step must
    hold the rows a run writes: every pair i < j of the tasks it names, in
    task-id order, times one scope's labels. Every later conflict step must
    hold the same rows in the same order.
    """
    loss_lines: list[int] = []
    steps: list[int] = []  # each conflict step, in file order
    first: list[list[str]] = []  # the (scope, i, j, block) cells of the first step's rows
    want: list[list[str]] = []  # the cells every step's rows must have, once first is checked
    labels: list[str] = []
    ids: list[int] = []
    dots: list[float] = []
    cosines: list[float] = []
    flags: list[str] = []
    lines: list[int] = []  # each conflict row's line
    pos = 0  # rows read of the current conflict step

    def end_step() -> None:
        nonlocal want, labels, ids
        if not want:  # the first conflict step ends
            labels, ids, want = _expected_cells(first)
            start = len(lines) - len(first)
            for k, cells in enumerate(first):
                if k >= len(want) or cells != want[k]:
                    raise ConfigError(f"{path}:{lines[start + k]}: "
                                      f"{_row_fault(cells, want, k, labels)}")
        if pos < len(want):
            raise ConfigError(f"{path}:{lines[-1]}: step {steps[-1]} ends after {pos} of the "
                              f"{len(want)} conflict rows each step has")

    header = ",".join(STEPS_HEADER)
    lineno = 1
    # universal newlines: a run writes \r\n line ends, hand-made files may use \n
    with open(path, encoding="utf-8") as fh:
        try:
            found = fh.readline().rstrip("\n")
            if found != header:
                raise ValueError(f"unexpected header {found!r}")
            for lineno, line in enumerate(fh, 2):
                row = line.rstrip("\n").split(",")
                if len(row) != len(STEPS_HEADER):
                    raise ValueError(f"expected {len(STEPS_HEADER)} fields, got {len(row)}")
                if row[1]:
                    log.steps.append(StepRecord(step=int(row[0]), task=int(row[1]),
                                                loss=_finite(row[2]), lr=_finite(row[3])))
                    loss_lines.append(lineno)
                    continue
                step = int(row[0])
                if not steps or step != steps[-1]:
                    if steps:
                        end_step()
                        if step < steps[-1]:
                            raise ValueError(f"conflict rows of step {step} after those of "
                                             f"step {steps[-1]}")
                    steps.append(step)
                    pos = 0
                cells = row[4:8]
                if len(steps) == 1:  # a bad scope or pair cell fails at its own line
                    scope_labels(cells[0], 0), int(cells[1]), int(cells[2])
                    first.append(cells)
                elif pos >= len(want) or cells != want[pos]:
                    raise ValueError(_row_fault(cells, want, pos, labels))
                pos += 1
                dots.append(float(row[8]))
                cosines.append(float(row[9]))
                flags.append(row[10])
                lines.append(lineno)
        except ConfigError:  # from end_step, naming its own line
            raise
        except ValueError as exc:  # bad numbers and cells, text that is not UTF-8
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    count = len(log.steps)
    try:
        step_ids = np.fromiter(map(attrgetter("step"), log.steps), np.int64, count)
        task_ids = np.fromiter(map(attrgetter("task"), log.steps), np.int64, count)
    except OverflowError:  # an id past 64 bits, which no run writes
        k = next(k for k, rec in enumerate(log.steps)
                 if not -2**63 <= min(rec.step, rec.task) <= max(rec.step, rec.task) < 2**63)
        raise ConfigError(f"{path}:{loss_lines[k]}: step or task does not fit 64 bits") from None
    order = np.lexsort((task_ids, step_ids))  # stable: a repeat sorts after its first row
    repeats = order[1:][(np.diff(step_ids[order]) == 0) & (np.diff(task_ids[order]) == 0)]
    if repeats.size:
        k = int(repeats.min())
        raise ConfigError(f"{path}:{loss_lines[k]}: repeats the loss row of step {step_ids[k]} "
                          f"task {task_ids[k]}")
    if not steps:
        return loss_lines
    end_step()
    dot, cosine = np.array(dots), np.array(cosines)
    _check_columns(path, dot, cosine, flags, lines)
    shape = (len(steps), len(want) // len(labels), len(labels))
    log.conflicts = [ConflictReport(step, want[0][0], labels, ids, d, c)
                     for step, d, c in zip(steps, dot.reshape(shape), cosine.reshape(shape))]
    return loss_lines


def read_metrics(mode_dir: str | Path, mode: str) -> MetricsLog:
    mode_dir = Path(mode_dir)
    log = MetricsLog(mode=mode)
    eval_path = mode_dir / EVAL_FILE
    if not eval_path.is_file():
        raise ConfigError(f"missing {eval_path}")
    steps_path = mode_dir / STEPS_FILE
    loss_lines = _read_steps(steps_path, log) if steps_path.is_file() else []
    metrics: dict[int, dict[str, float]] = {}  # epoch -> metric by task label, rows so far

    def eval_row(row: list[str]) -> EvalRecord:
        rec = EvalRecord(epoch=int(row[0]), mode=row[1], task=row[2], metric=_finite(row[3]))
        last = next(reversed(metrics), rec.epoch)
        if rec.epoch < last:
            raise ValueError(f"epoch {rec.epoch} follows epoch {last}")
        if rec.epoch > last and AVG_TASK not in metrics[last]:
            raise ValueError(f"epoch {rec.epoch} starts before the avg row of epoch {last}")
        read = metrics.setdefault(rec.epoch, {})
        first_epoch, first = next(iter(metrics.items()))
        if rec.mode != mode:
            raise ValueError(f"mode {rec.mode!r} is not {mode!r}, the mode of its directory")
        if rec.task != AVG_TASK and not (rec.task.isdecimal() and str(int(rec.task)) == rec.task):
            raise ValueError(f"task {rec.task!r} is neither a task id nor {AVG_TASK!r}")
        if rec.task in read:
            raise ValueError(f"repeats the row of epoch {rec.epoch} task {rec.task}")
        if AVG_TASK in read:
            raise ValueError(f"task {rec.task} follows the avg row of epoch {rec.epoch}")
        if read is not first:  # a later epoch lists the first epoch's tasks, then avg
            if rec.task not in first:
                raise ValueError(f"task {rec.task} is not one of the tasks of epoch {first_epoch}")
            if rec.task == AVG_TASK and len(read) + 1 != len(first):
                raise ValueError(f"epoch {rec.epoch} lacks task(s) "
                                 f"{sorted(first.keys() - read.keys() - {AVG_TASK})} of epoch "
                                 f"{first_epoch}")
        if rec.task == AVG_TASK and rec.metric != (fmean(read.values()) if read else math.nan):
            raise ValueError(f"avg {row[3]} is not the mean of the task rows above it "
                             f"for epoch {rec.epoch}")
        read[rec.task] = rec.metric
        return rec

    log.evals = _read_rows(eval_path, EVAL_HEADER, eval_row)
    if not log.evals:
        raise ConfigError(f"{eval_path}: no eval records")
    if AVG_TASK not in metrics[log.evals[-1].epoch]:
        raise ConfigError(f"{eval_path}: epoch {log.evals[-1].epoch} ends without its avg row")
    listed = {rec.task for rec in log.evals}
    unknown = {task for task in set(map(attrgetter("task"), log.steps)) if str(task) not in listed}
    if unknown:
        line, task = next((line, rec.task) for rec, line in zip(log.steps, loss_lines)
                          if rec.task in unknown)
        raise ConfigError(f"{steps_path}:{line}: loss row of task {task}, which {eval_path} "
                          "does not list")
    return log


def read_rank_rows(path: str | Path) -> list[RankRow]:
    seen: set[int] = set()

    def rank_row(row: list[str]) -> RankRow:
        rank = int(row[0])
        if rank in seen:
            raise ValueError(f"rank {rank} repeats an earlier row")
        seen.add(rank)
        return RankRow(rank=rank, joint=_finite(row[1]), ortho=_finite(row[2]),
                       delta=_finite(row[3]))

    rows = _read_rows(Path(path), RANK_HEADER, rank_row)
    if not rows:
        raise ConfigError(f"{path}: no rank rows")
    return rows


def mode_dirs(run_dir: Path) -> list[Path]:
    """The subdirectories of run_dir that hold an ``eval.csv`` or a
    ``steps.csv``, by name; none when run_dir is not a directory."""
    return [child for child in (sorted(run_dir.iterdir()) if run_dir.is_dir() else [])
            if (child / EVAL_FILE).is_file() or (child / STEPS_FILE).is_file()]


def summarize_dir(run_dir: str | Path) -> SummaryTable:
    """Recompute the summary from the CSVs under a run directory.

    Every subdirectory that holds an ``eval.csv`` or a ``steps.csv`` is a
    mode, and must hold an ``eval.csv``. Every mode must end at the same
    final epoch and report the same task labels there, and every ``avg`` row
    must be exactly the mean of its epoch's task rows (the 17-digit CSV
    floats round-trip exactly). A ``sweep-rank`` directory holds a
    ``rank_sweep.csv`` and no modes. Each mode's loss and conflict rows are
    dropped once ``read_metrics`` has checked them: the summary reads only
    eval rows, so at most one mode's step rows are held at a time.
    """
    run_dir = Path(run_dir)
    logs: dict[str, MetricsLog] = {}
    for child in mode_dirs(run_dir):
        logs[child.name] = MetricsLog(child.name, evals=read_metrics(child, child.name).evals)
    rank_path = run_dir / RANK_FILE
    if not logs and not rank_path.is_file():
        raise ConfigError(f"{run_dir}: no mode subdirectories with {EVAL_FILE} and no {RANK_FILE} "
                          "found")
    table = build_summary(logs)
    finals = {mode: max(r.epoch for r in log.evals) for mode, log in logs.items()}
    counts = Counter(finals.values())
    common = max(counts, key=lambda epoch: (counts[epoch], epoch), default=None)
    for mode, epoch in finals.items():
        if epoch != common:
            raise ConfigError(f"{run_dir / mode / EVAL_FILE}: final epoch {epoch} differs from "
                              f"the final epoch {common} of the other modes")
    labels = set().union(*table.metrics.values())
    for mode, cells in table.metrics.items():
        if labels - set(cells):
            raise ConfigError(f"{run_dir / mode / EVAL_FILE}: final epoch lacks task(s) "
                              f"{sorted(labels - set(cells))} that another mode reports")
    if rank_path.is_file():
        table.rank_rows = read_rank_rows(rank_path)
    return table


# --- rank sweep ---


def rank_sweep(config: ExperimentConfig, ranks: list[int], num_seeds: int = 5) -> list[RankRow]:
    """JOINT vs ORTHO_STRUCTURED final average metric per rank, seed-averaged."""
    if not ranks:
        raise ParameterError("rank_sweep needs at least one rank")
    if num_seeds < 1:
        raise ParameterError(f"num_seeds must be >= 1, got {num_seeds}")
    repeated = [r for r in ranks if ranks.count(r) > 1]
    if repeated:
        raise ParameterError(f"rank {repeated[0]} repeats in ranks {ranks}")
    # revalidated copies: a rank the config rejects fails before any training
    configs = [config.with_updates(rank=r, modes=[JOINT, ORTHO_STRUCTURED]) for r in sorted(ranks)]
    rows: list[RankRow] = []
    for rank_config in configs:
        joint_vals: list[float] = []
        ortho_vals: list[float] = []
        for s in range(num_seeds):
            result = run_experiment(rank_config.with_updates(seed=config.seed + s))
            joint_vals.append(result.final_average(JOINT))
            ortho_vals.append(result.final_average(ORTHO_STRUCTURED))
        joint_mean = sum(joint_vals) / len(joint_vals)
        ortho_mean = sum(ortho_vals) / len(ortho_vals)
        rows.append(RankRow(rank=rank_config.model.rank, joint=joint_mean, ortho=ortho_mean,
                            delta=ortho_mean - joint_mean))
    return rows


def format_summary(table: SummaryTable) -> str:
    """Plain-text rendering for the CLI."""
    lines: list[str] = []
    if table.metrics:
        tasks = sorted({t for cells in table.metrics.values() for t in cells},
                       key=lambda t: (t == AVG_TASK, t))
        width = max(len(label) for label in
                    ["mode", *table.metrics, *(f"recovery {m}" for m in table.recovery)])
        lines.append("final eval metric per mode:")
        header = f"  {'mode':<{width}}" + "".join(f"{t:>14}" for t in tasks)
        lines.append(header)
        for mode in sorted(table.metrics):
            cells = table.metrics[mode]
            row = f"  {mode:<{width}}" + "".join(
                f"{cells[t]:>14.6g}" if t in cells else f"{'-':>14}" for t in tasks
            )
            lines.append(row)
        for mode, cells in sorted(table.recovery.items()):
            row = f"  {'recovery ' + mode:<{width}}" + "".join(
                (f"{cells[t]:>13.1f}%" if cells.get(t) is not None else f"{'-':>14}")
                for t in tasks
            )
            lines.append(row)
    if table.rank_rows:
        lines.append("rank sweep (seed-averaged final metric):")
        lines.append("  {:>6} {:>12} {:>12} {:>12}".format(*RANK_HEADER))
        for r in table.rank_rows:
            lines.append(f"  {r.rank:>6} {r.joint:>12.6g} {r.ortho:>12.6g} {r.delta:>+12.6g}")
    return "\n".join(lines)
