"""Metrics persistence and the summary computations (recovery, rank sweep).

CSV schemas (headers are part of the contract):

* steps.csv: ``step,task,loss,lr,scope,pair_i,pair_j,block,dot,cosine,conflicted``
  Loss rows fill the first four columns; conflict rows fill the rest. The
  empty columns of each row kind stay empty. Each step's loss rows come
  first, one per task in task order, then its conflict rows, if it has
  any: pair-major, block-minor, one row per task pair (i < j) in task
  order and scope group.
* eval.csv:  ``epoch,mode,task,metric`` with one row per task per epoch plus
  an ``avg`` row.
* rank_sweep.csv: ``rank,joint,ortho,delta``, one row per rank.

All floats are serialized with 17 significant digits, which round-trips
float64 exactly, so summaries recomputed from disk match the in-memory ones
bit for bit. Each row kind has one template, which the writer and the reader
share; lines end in ``\r\n``. Every file is written through
``files.atomic_write``.

The reader has one rule: a run file is the text that a run of the run
directory's ``config.json`` writes for it. The config fixes each file's
shape, and the reader infers none from the file: tasks 0..T-1, steps
0..total_steps()-1, epochs 0..epochs, and each step's conflict rows exactly
when ``conflict_scope`` gives the mode a scope, with that scope's labels.
The reader checks each line's fixed cells in place and parses its float
cells once, then end of file; it renders the line expected there with the
templates only to report the first line that differs, in a ConfigError:
``path:line: expected '<rendered>', got '<found>'``. Free float cells (loss,
lr, dot, cosine, metric, joint, ortho) keep the file's own spelling. Derived cells
are rendered from the values read: ``conflicted`` is 1 exactly when dot <
0, a step's lr is its first loss row's, ``avg`` is the mean of its epoch's
task metrics and ``delta`` is ortho - joint. rank_sweep.csv holds exactly
the ranks of its directory's ``sweep.json``, in order. Only what rendering
cannot show is checked apart: a field count, a number that does not parse, a non-finite value, and
a cosine outside [-1, 1] by more than rounding (``COSINE_ROUNDING``). The
reader takes ``\n`` line ends too. It returns the run's columnar log, with
eval.csv's task metrics as the (epochs + 1, T) ``metrics`` array.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import chain, combinations, repeat
from pathlib import Path
from statistics import fmean
from typing import NoReturn

import numpy as np

from .config import (
    JOINT,
    ORTHO_FLAT,
    ORTHO_STRUCTURED,
    SINGLE_TASK,
    ExperimentConfig,
    load_config,
    load_sweep,
)
from .errors import ConfigError, ParameterError
from .files import atomic_write
from .model import scope_labels
from .surgery import ConflictReport
from .tasks import SyntheticTaskSet
from .trainer import AVG_TASK, MetricsLog, conflict_scope, run_experiment

STEPS_HEADER = ["step", "task", "loss", "lr", "scope", "pair_i", "pair_j", "block",
                "dot", "cosine", "conflicted"]
EVAL_HEADER = ["epoch", "mode", "task", "metric"]
RANK_HEADER = ["rank", "joint", "ortho", "delta"]

STEPS_FILE = "steps.csv"
EVAL_FILE = "eval.csv"
RANK_FILE = "rank_sweep.csv"
CONFIG_FILE = "config.json"
SWEEP_FILE = "sweep.json"

# How far a written cosine may pass +-1 by rounding, in ulps of 1.0: the
# cosine of two parallel gradients, dot / (||gi|| ||gj||) from one Gram
# matrix, landed at most 10 ulps past 1 over 80,000 random pairs of up to
# 4,096 entries.
COSINE_ROUNDING = 64 * 2.0**-52

MISSING = "…"  # each cell of the line past a file's last, in the line expected there


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


# --- CSV rows: the writer renders them, and the reader renders the lines it expects ---


def loss_row(step: int, task: int, loss: str, lr: str) -> str:
    return f"{step},{task},{loss},{lr},,,,,,,"


def conflict_middles(scope: str, labels: list[str], num_tasks: int) -> list[str]:
    """The scope, pair and block cells, commas around them, of a step's conflict
    rows: pair-major over the task pairs (i < j) in order, block-minor."""
    return [f",,,,{scope},{i},{j},{label}," for i, j in combinations(range(num_tasks), 2)
            for label in labels]


def conflict_row(step: int, middle: str, dot: str, cosine: str, conflicted: str) -> str:
    return f"{step}{middle}{dot},{cosine},{conflicted}"


def eval_row(epoch: int, mode: str, task: int | str, metric: str) -> str:
    return f"{epoch},{mode},{task},{metric}"


def rank_row(rank: int | str, joint: str, ortho: str, delta: str) -> str:
    return f"{rank},{joint},{ortho},{delta}"


# --- CSV writing ---


def _write_rows(path: Path, header: list[str], rows: Iterable[str]) -> None:
    with atomic_write(path, newline="") as fh:
        fh.write("".join(f"{row}\r\n" for row in chain([",".join(header)], rows)))


def write_metrics(log: MetricsLog, mode_dir: str | Path) -> None:
    mode_dir = Path(mode_dir)
    mode_dir.mkdir(parents=True, exist_ok=True)
    # each step's conflict cells: the scope, pair and block ones, then its dots and cosines
    middles, conflicts = [], repeat(([], []), len(log.lrs))
    for report in log.conflicts:  # a run keeps at most one, of every step
        middles = conflict_middles(report.scope, report.labels, report.num_tasks)
        size = len(report.dot), len(middles)
        conflicts = zip(report.dot.reshape(size).tolist(), report.cosine.reshape(size).tolist())

    with atomic_write(mode_dir / STEPS_FILE, newline="") as fh:
        fh.write(",".join(STEPS_HEADER) + "\r\n")
        for step, (losses, lr, (dots, cosines)) in enumerate(
                zip(log.losses.tolist(), log.lrs.tolist(), conflicts, strict=True)):
            # floats formatted in place, as fmt does: a call per float slowed the
            # many-tasks writer by about 4%
            lr_text = f"{lr:.17g}"
            rows = [loss_row(step, task, f"{loss:.17g}", lr_text) for task, loss in enumerate(losses)]
            # a step's conflict rows follow its loss rows
            rows += [conflict_row(step, middle, f"{d:.17g}", f"{c:.17g}", "1" if d < 0.0 else "0")
                     for middle, d, c in zip(middles, dots, cosines)]
            fh.write("\r\n".join(rows) + "\r\n")

    _write_rows(mode_dir / EVAL_FILE, EVAL_HEADER,
                (eval_row(epoch, log.mode, task, fmt(metric))
                 for epoch, row in enumerate(log.metrics.tolist())
                 for task, metric in [*enumerate(row), (AVG_TASK, fmean(row))]))


def write_rank_rows(rows: list[RankRow], path: str | Path) -> None:
    _write_rows(Path(path), RANK_HEADER,
                (rank_row(r.rank, fmt(r.joint), fmt(r.ortho), fmt(r.delta)) for r in rows))


# --- CSV reading ---


def _differs(want: str | None, text: str | None) -> ValueError:
    """The error for a line text, None past the last, that is not want, None for end of file."""
    return ValueError(f"expected {'end of file' if want is None else repr(want)}, got "
                      f"{'end of file' if text is None else repr(text)}")


def _reject(line: str, width: int, expected: Callable[[list[str]], str | None],
            floats: tuple[int, ...] = (), cosine: int | None = None) -> NoReturn:
    """Raise the ValueError that names what a reader found wrong with line, as
    read ("" past the last line), where ``expected(cells)`` renders the line
    expected there, None for end of file. The checks, in order: the field
    count, the expected line (cells past the last line read MISSING), each of
    the floats cells finite, and the cosine cell within [-1, 1] by
    COSINE_ROUNDING. A line that passes them all is a reader's fault."""
    text = line.rstrip("\n") if line else None
    cells = [MISSING] * width if text is None else text.split(",")
    if len(cells) != width:
        raise ValueError(f"expected {width} fields, got {len(cells)}")
    want = expected(cells)
    if text != want:
        raise _differs(want, text)
    for column in floats:
        if not math.isfinite(float(cells[column])):
            raise ValueError(f"non-finite value {cells[column]!r}")
    if cosine is not None and not abs(float(cells[cosine])) <= 1.0 + COSINE_ROUNDING:
        raise ValueError(f"cosine {cells[cosine]} is outside [-1, 1]")
    raise AssertionError(f"{text!r} passes every check")


def _conflicted(cells: list[str]) -> str:
    """A conflict line's expected ``conflicted`` cell: 1 exactly when its dot is
    negative, or its own cell when a float does not parse."""
    try:
        dot, _ = float(cells[8]), float(cells[9])
    except ValueError:  # compared first, with its own flag: a row of another kind
        return cells[10]
    return "1" if dot < 0.0 else "0"


def _delta(cells: list[str]) -> str:
    """A rank line's expected delta cell, or its own when a float does not parse."""
    try:
        return fmt(float(cells[2]) - float(cells[1]))
    except ValueError:  # compared first, with its own delta: a line of another kind
        return cells[3]


@contextmanager
def _read_lines(path: Path, header: list[str], accepted: Callable[[], int]
                ) -> Iterator[Iterator[str]]:
    """path's lines after its header, which must be header: each as read, its
    line end kept, then "" past the last, which must follow the lines the
    block takes. A ValueError inside the block (``_reject``'s, or text that
    is not UTF-8) or an overflow becomes a ConfigError naming path:line, the
    line after the accepted() lines the block took, so no reader counts
    lines as it reads them."""
    # universal newlines: a run writes \r\n line ends, hand-made files may use \n
    with open(path, encoding="utf-8") as fh:
        lines = chain(fh, repeat(""))
        try:
            first = next(lines)
            if first.rstrip("\n") != ",".join(header):  # compared whole, with no field count
                raise _differs(",".join(header), first.rstrip("\n") if first else None)
        except ValueError as exc:
            raise ConfigError(f"{path}:1: {exc}") from None
        try:
            yield lines
            if line := next(lines):
                _reject(line, len(header), lambda cells: None)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}:{2 + accepted()}: {exc}") from None


def _read_steps(path: Path, mode: str, config: ExperimentConfig, metrics: np.ndarray) -> MetricsLog:
    """mode's log of eval metrics and steps.csv: its loss rows as the loss and lr
    columns, its conflict rows as the one columnar report a run keeps. Each
    line is checked in place against the one a run of config writes there
    for mode: its fixed cells where they stand, its float cells parsed once.
    Only a line that fails renders the expected one, in ``_reject``."""
    num_tasks, width = config.tasks.num_tasks, len(STEPS_HEADER)
    scope = conflict_scope(config, mode)
    labels = scope_labels(scope, len(config.model.layer_dims) - 1) if scope else []
    middles = conflict_middles(scope, labels, num_tasks) if scope else []
    tasks = [f",{task}," for task in range(num_tasks)]  # a loss row's cells between step and loss
    bound, isfinite = 1.0 + COSINE_ROUNDING, math.isfinite
    losses, lrs, dots, cosines = [], [], [], []  # lists of floats
    with _read_lines(path, STEPS_HEADER, lambda: len(losses) + len(dots)) as lines:
        for step in range(config.total_steps()):  # a step's loss rows, then its conflict rows
            digits = str(step)
            start = len(digits)
            for task, (cell, line) in enumerate(zip(tasks, lines)):
                text = line.rstrip("\n")
                try:  # a loss row: step, task, loss, the step's lr (task 0's), 7 empty cells
                    if text.startswith(digits) and text.startswith(cell, start):
                        loss_text, lr, rest = text[start + len(cell):].split(",", 2)
                        if task == 0:
                            lr_text, lr_value = lr, float(lr)
                        loss = float(loss_text)
                        if (lr == lr_text and rest == ",,,,,," and isfinite(lr_value)
                                and isfinite(loss)):
                            losses.append(loss)
                            continue
                except ValueError:  # a float that does not parse, or too few cells
                    pass
                _reject(line, width, lambda cells: loss_row(
                    step, task, cells[2], cells[3] if task == 0 else lr_text),
                    (3, 2) if task == 0 else (2,))
            lrs.append(lr_value)
            for middle, line in zip(middles, lines):
                text = line.rstrip("\n")
                try:  # a conflict row: step, middle, dot, cosine, 1 exactly when dot < 0
                    if text.startswith(digits) and text.startswith(middle, start):
                        dot_text, cosine_text, flag = text[start + len(middle):].split(",")
                        dot, cosine = float(dot_text), float(cosine_text)
                        if (flag == ("1" if dot < 0.0 else "0") and isfinite(dot)
                                and abs(cosine) <= bound):
                            dots.append(dot)
                            cosines.append(cosine)
                            continue
                except ValueError:
                    pass
                _reject(line, width, lambda cells: conflict_row(
                    step, middle, cells[8], cells[9], _conflicted(cells)), (8, 9), cosine=9)
    log = MetricsLog(mode, np.array(losses).reshape(len(lrs), num_tasks), np.array(lrs),
                     metrics=metrics)
    if middles and config.total_steps():
        shape = (config.total_steps(), len(middles) // len(labels), len(labels))
        log.conflicts.append(ConflictReport(scope, labels, num_tasks, np.array(dots).reshape(shape),
                                            np.array(cosines).reshape(shape)))
    return log


def _read_evals(path: Path, mode: str, config: ExperimentConfig) -> np.ndarray:
    """eval.csv's task metrics as an (epochs + 1, T) array, each line checked
    against the one a run of config writes there for mode."""
    num_tasks, width = config.tasks.num_tasks, len(EVAL_HEADER)
    rows: list[list[float]] = []
    metrics: list[float] = []  # the task metrics of the epoch read
    with _read_lines(path, EVAL_HEADER, lambda: len(rows) * (num_tasks + 1) + len(metrics)) as lines:
        for epoch in range(config.schedule.epochs + 1):  # an epoch's task rows, then its avg row
            for task, line in zip(range(num_tasks), lines):
                prefix, text = eval_row(epoch, mode, task, ""), line.rstrip("\n")
                with suppress(ValueError):  # a metric that does not parse holds a comma too
                    if text.startswith(prefix) and math.isfinite(metric := float(text[len(prefix):])):
                        metrics.append(metric)
                        continue
                _reject(line, width, lambda cells: eval_row(epoch, mode, task, cells[3]), (3,))
            line = next(lines)
            with suppress(OverflowError):  # of the mean, raised again by _reject
                if line.rstrip("\n") == eval_row(epoch, mode, AVG_TASK, fmt(fmean(metrics))):
                    rows.append(metrics)
                    metrics = []
                    continue
            _reject(line, width, lambda cells: eval_row(epoch, mode, AVG_TASK, fmt(fmean(metrics))))
    return np.array(rows)


def read_metrics(mode_dir: str | Path, mode: str, config: ExperimentConfig) -> MetricsLog:
    """mode's eval.csv and steps.csv in mode_dir, read against config."""
    mode_dir = Path(mode_dir)
    eval_path, steps_path = mode_dir / EVAL_FILE, mode_dir / STEPS_FILE
    for path in (eval_path, steps_path):
        if not path.is_file():
            raise ConfigError(f"missing {path}")
    return _read_steps(steps_path, mode, config, _read_evals(eval_path, mode, config))


def read_rank_rows(path: str | Path, ranks: list[int]) -> list[RankRow]:
    """rank_sweep.csv's rows, each line checked against the one the writer
    renders there for the next of ranks, then end of file."""
    rows: list[RankRow] = []
    width = len(RANK_HEADER)
    with _read_lines(Path(path), RANK_HEADER, lambda: len(rows)) as lines:
        for rank, line in zip(ranks, lines):
            prefix, text = f"{rank},", line.rstrip("\n")
            with suppress(ValueError):
                if text.startswith(prefix):
                    joint_text, ortho_text, delta_text = text[len(prefix):].split(",")
                    joint, ortho = float(joint_text), float(ortho_text)
                    delta = ortho - joint  # finite only when both are
                    if math.isfinite(delta) and delta_text == fmt(delta):
                        rows.append(RankRow(rank, joint, ortho, delta))
                        continue
            _reject(line, width, lambda cells: rank_row(rank, cells[1], cells[2], _delta(cells)),
                    (1, 2, 3))
    return rows


def mode_dirs(run_dir: Path) -> list[Path]:
    """The subdirectories of run_dir that hold an ``eval.csv`` or a
    ``steps.csv``, by name; none when run_dir is not a directory."""
    return [child for child in (sorted(run_dir.iterdir()) if run_dir.is_dir() else [])
            if (child / EVAL_FILE).is_file() or (child / STEPS_FILE).is_file()]


def summarize_dir(run_dir: str | Path) -> SummaryTable:
    """Recompute the summary from the files of a ``run`` or ``sweep-rank`` directory.

    A directory with a ``rank_sweep.csv`` is a sweep directory: it holds no
    mode directory (see ``mode_dirs``), and its ``sweep.json`` lists the
    ranks, each one its ``config.json`` accepts, that ``read_rank_rows``
    reads the table against. Any other is a run directory: its
    ``config.json`` and one mode directory per mode the config lists, and no
    other, each read against the config by ``read_metrics``. Each mode's loss and conflict rows are dropped once
    checked: the summary reads only eval rows, so at most one mode's step
    rows are held at a time.
    """
    run_dir = Path(run_dir)
    rank_path = run_dir / RANK_FILE
    modes = mode_dirs(run_dir)
    config_path = run_dir / CONFIG_FILE
    if rank_path.is_file():
        if modes:
            raise ConfigError(f"{modes[0]}: a mode directory beside {rank_path}, which a "
                              "sweep-rank directory does not hold")
        sweep, config = load_sweep(run_dir / SWEEP_FILE), load_config(config_path)
        for rank in sweep.ranks:
            try:
                config.with_updates(rank=rank)
            except ConfigError as exc:
                raise ConfigError(f"{run_dir / SWEEP_FILE}: sweep.ranks: {rank} is rejected by "
                                  f"{config_path}: {exc}") from None
        return SummaryTable(rank_rows=read_rank_rows(rank_path, sweep.ranks))
    config = load_config(config_path)
    other = [child for child in modes if child.name not in config.modes]
    if other:
        raise ConfigError(f"{other[0]}: not a mode of {config_path}, which runs only "
                          f"{', '.join(config.modes)}")
    logs = {mode: MetricsLog(mode, metrics=read_metrics(run_dir / mode, mode, config).metrics)
            for mode in config.modes}
    return build_summary(logs)


# --- rank sweep ---


def sweep_configs(config: ExperimentConfig, ranks: list[int], seeds: int
                  ) -> list[ExperimentConfig]:
    """Each rank's JOINT and ORTHO_STRUCTURED config, by rank, once config accepts
    every rank and the last seed; a ConfigError names the flag at fault."""
    if not ranks:
        raise ConfigError("--ranks: expected at least one rank")
    repeated = [rank for rank in ranks if ranks.count(rank) > 1]
    if repeated:
        raise ConfigError(f"--ranks {repeated[0]}: repeated; each rank is trained once")
    if seeds < 1:
        raise ConfigError(f"--seeds {seeds}: must be >= 1")

    def accepted(flag: str, **updates) -> ExperimentConfig:
        try:
            return config.with_updates(**updates)
        except ConfigError as exc:
            raise ConfigError(f"{flag}: {exc}") from None

    configs = {rank: accepted(f"--ranks {rank}", rank=rank, modes=[JOINT, ORTHO_STRUCTURED])
               for rank in ranks}
    accepted(f"--seeds {seeds}", seed=config.seed + seeds - 1)
    return [configs[rank] for rank in sorted(ranks)]


def rank_sweep(config: ExperimentConfig, ranks: list[int],
               task_sets: list[SyntheticTaskSet]) -> list[RankRow]:
    """JOINT vs ORTHO_STRUCTURED final average metric per rank, seed-averaged in
    seed order, over the configs ``sweep_configs`` checks and returns for
    len(task_sets) seeds. The rank does not change a task set: every rank of
    seed config.seed + s trains on task_sets[s]."""
    configs = sweep_configs(config, ranks, len(task_sets))
    rows: list[RankRow] = []
    for rank_config in configs:
        finals = [(result.final_average(JOINT), result.final_average(ORTHO_STRUCTURED))
                  for result in (run_experiment(rank_config.with_updates(seed=seed), task_set)
                                 for seed, task_set in enumerate(task_sets, config.seed))]
        joint, ortho = (sum(column) / len(column) for column in zip(*finals))
        rows.append(RankRow(rank_config.model.rank, joint, ortho, ortho - joint))
    return rows


def format_summary(table: SummaryTable) -> str:
    """Plain-text rendering for the CLI: task columns in task order, then avg."""
    lines: list[str] = []
    if table.metrics:
        tasks = sorted({t for cells in table.metrics.values() for t in cells},
                       key=lambda t: (t == AVG_TASK, 0 if t == AVG_TASK else int(t)))
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
