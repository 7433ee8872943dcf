"""Metrics persistence and the summary computations (recovery, rank sweep).

CSV schemas (headers are part of the contract):

* steps.csv: ``step,task,loss,lr,scope,pair_i,pair_j,block,dot,cosine,conflicted``
  Loss rows fill the first four columns; conflict rows fill the rest. The
  empty columns of each row kind stay empty.
* eval.csv:  ``epoch,mode,task,metric`` with one row per task per epoch plus
  an ``avg`` row.
* rank_sweep.csv: ``rank,joint,ortho,delta``.

All floats are serialized with 17 significant digits, which round-trips
float64 exactly, so summaries recomputed from disk match the in-memory ones
bit for bit.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path
from statistics import fmean

from .config import JOINT, ORTHO_FLAT, ORTHO_STRUCTURED, SINGLE_TASK, ExperimentConfig
from .errors import ConfigError, ParameterError
from .surgery import ConflictPair, ConflictReport
from .trainer import AVG_TASK, EvalRecord, MetricsLog, StepRecord, run_experiment

STEPS_HEADER = ["step", "task", "loss", "lr", "scope", "pair_i", "pair_j", "block",
                "dot", "cosine", "conflicted"]
EVAL_HEADER = ["epoch", "mode", "task", "metric"]
RANK_HEADER = ["rank", "joint", "ortho", "delta"]

STEPS_FILE = "steps.csv"
EVAL_FILE = "eval.csv"
RANK_FILE = "rank_sweep.csv"


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

    with open(mode_dir / STEPS_FILE, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(STEPS_HEADER)
        for step, records in groupby(log.steps, key=lambda rec: rec.step):
            for rec in records:
                writer.writerow([rec.step, rec.task, fmt(rec.loss), fmt(rec.lr),
                                 "", "", "", "", "", "", ""])
            if step in conflicts_by_step:  # a step's conflict rows follow its loss rows
                _write_conflicts(writer, conflicts_by_step[step])

    with open(mode_dir / EVAL_FILE, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVAL_HEADER)
        for rec in log.evals:
            writer.writerow([rec.epoch, rec.mode, rec.task, fmt(rec.metric)])


def _write_conflicts(writer, report: ConflictReport) -> None:
    for p in report.pairs:
        writer.writerow([report.step, "", "", "", report.scope, p.i, p.j, p.block,
                         fmt(p.dot), fmt(p.cosine), int(p.conflicted)])


def write_rank_rows(rows: list[RankRow], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
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


def read_metrics(mode_dir: str | Path, mode: str) -> MetricsLog:
    mode_dir = Path(mode_dir)
    log = MetricsLog(mode=mode)
    steps_path = mode_dir / STEPS_FILE
    if steps_path.is_file():
        reports: dict[int, ConflictReport] = {}

        def step_row(row: list[str]) -> None:
            step = int(row[0])
            if row[1] != "":
                log.steps.append(StepRecord(step=step, task=int(row[1]),
                                            loss=_finite(row[2]), lr=_finite(row[3])))
                return
            report = reports.get(step)
            if report is None:
                report = reports[step] = ConflictReport(step=step, scope=row[4])
                log.conflicts.append(report)
            dot = _finite(row[8])
            conflicted = dot < 0.0
            if row[10] != ("1" if conflicted else "0"):
                raise ValueError(f"conflicted {row[10]!r} is not {int(conflicted)}, as dot {row[8]} "
                                 "says")
            report.pairs.append(ConflictPair(i=int(row[5]), j=int(row[6]), block=row[7], dot=dot,
                                             cosine=_finite(row[9]), conflicted=conflicted))

        _read_rows(steps_path, STEPS_HEADER, step_row)
    eval_path = mode_dir / EVAL_FILE
    if not eval_path.is_file():
        raise ConfigError(f"missing {eval_path}")
    task_metrics: dict[int, list[float]] = {}

    def eval_row(row: list[str]) -> EvalRecord:
        rec = EvalRecord(epoch=int(row[0]), mode=row[1], task=row[2], metric=_finite(row[3]))
        if rec.task != AVG_TASK:
            task_metrics.setdefault(rec.epoch, []).append(rec.metric)
        elif rec.metric != fmean(task_metrics.get(rec.epoch, [math.nan])):
            raise ValueError(f"avg {row[3]} is not the mean of the task rows above it "
                             f"for epoch {rec.epoch}")
        return rec

    log.evals = _read_rows(eval_path, EVAL_HEADER, eval_row)
    if not log.evals:
        raise ConfigError(f"{eval_path}: no eval records")
    return log


def read_rank_rows(path: str | Path) -> list[RankRow]:
    return _read_rows(Path(path), RANK_HEADER, lambda row: RankRow(
        rank=int(row[0]), joint=_finite(row[1]), ortho=_finite(row[2]), delta=_finite(row[3])))


def summarize_dir(run_dir: str | Path) -> SummaryTable:
    """Recompute the summary from the CSVs under a run directory.

    Every mode must end at the same final epoch and report the same task
    labels there, and every ``avg`` row must be exactly the mean of its
    epoch's task rows (the 17-digit CSV floats round-trip exactly).
    """
    run_dir = Path(run_dir)
    logs: dict[str, MetricsLog] = {}
    for child in sorted(run_dir.iterdir()) if run_dir.is_dir() else []:
        if child.is_dir() and (child / EVAL_FILE).is_file():
            logs[child.name] = read_metrics(child, child.name)
    if not logs:
        raise ConfigError(f"{run_dir}: no mode subdirectories with {EVAL_FILE} found")
    table = build_summary(logs)
    finals = {mode: max(r.epoch for r in log.evals) for mode, log in logs.items()}
    counts = Counter(finals.values())
    common = max(counts, key=lambda epoch: (counts[epoch], epoch))
    for mode, epoch in finals.items():
        if epoch != common:
            raise ConfigError(f"{run_dir / mode / EVAL_FILE}: final epoch {epoch} differs from "
                              f"the final epoch {common} of the other modes")
    labels = set().union(*table.metrics.values())
    for mode, cells in table.metrics.items():
        if labels - set(cells):
            raise ConfigError(f"{run_dir / mode / EVAL_FILE}: final epoch lacks task(s) "
                              f"{sorted(labels - set(cells))} that another mode reports")
    rank_path = run_dir / RANK_FILE
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
