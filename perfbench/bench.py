"""Measure one workload along the user's path, and check its outputs.

Each repetition does what ``ortho-lora run`` and then ``ortho-lora
summarize`` do: save the validated config, train every mode with a
per-epoch eval, write ``steps.csv``, ``eval.csv`` and the adapter dumps per
mode, then rebuild the summary table from the run directory alone. An
untraced run gives the end-to-end metrics; a traced run alternates untraced
and traced repetitions and gives the per-layer split (see ``spans.py``).

Every mode run is one operation of the correctness gate. It fails when a
final metric is not finite, when the summary read back from the CSVs differs
from the in-memory one in any bit, or, at the reference seed, when its final
``avg`` metric is off the stored reference by more than rounding allows.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from spans import Target, Tracer, span_totals

# Called through their modules, never bound by name here, so that a traced
# run's wrappers are the functions this harness calls.
adapter = importlib.import_module("ortho_lora.adapter")
config = importlib.import_module("ortho_lora.config")
reporting = importlib.import_module("ortho_lora.reporting")
trainer = importlib.import_module("ortho_lora.trainer")

PERFBENCH = Path(__file__).resolve().parent
WORKER = PERFBENCH / "worker.py"
REFERENCE_FILE = PERFBENCH / "reference.json"

# Worker processes per untraced run; setup_s is the median of their cold
# starts. Over ten seeds, that median spread by 9-10% with five workers and
# the training-shaped kernel, and by 3-6% with fifteen and setup_kernel.
WORKERS = 15

# Nominal seconds of each calibration kernel; see calibration_kernel and
# setup_kernel.
CAL_REF_S = 0.035

# Reference tolerance. Reordering a float sum (such as a new dot order in
# ORTHO_FLAT) moves a final regression MSE by about 1e-16 relative, so 1e-7
# leaves ample room while any real change of the training math moves it far
# more.
REL_TOL = 1e-7

LAYERS = ("config", "tasks", "model", "surgery", "optim", "trainer", "reporting",
          "adapter", "bench", "trace")


def _count_backward_passes(tracer: Tracer, args, kwargs, result) -> None:
    _, models = result
    tracer.count("model.backward_passes", sum(m.backward_passes for m in models))


def _count_pairs(tracer: Tracer, args, kwargs, report) -> None:
    tracer.count("surgery.pairs_checked", len(report.pairs))
    tracer.count("surgery.pairs_conflicted", sum(p.conflicted for p in report.pairs))


def _count_projected_groups(tracer: Tracer, args, kwargs, projected) -> None:
    grads = args[0] if args else kwargs["grads"]
    scope = args[1] if len(args) > 1 else kwargs["scope"]
    groups = sys.modules["ortho_lora.surgery"].scope_groups(grads[0], scope)
    changed = sum(
        any(not np.array_equal(g.blocks[b], p.blocks[b]) for b in bids)
        for g, p in zip(grads, projected)
        for _, bids in groups
    )
    tracer.count("surgery.groups_projected", changed)


def _count_written(tracer: Tracer, args, kwargs, _) -> None:
    log = args[0] if args else kwargs["log"]
    mode_dir = Path(args[1] if len(args) > 1 else kwargs["mode_dir"])
    rows = len(log.steps) + sum(len(r.pairs) for r in log.conflicts) + len(log.evals)
    tracer.count("reporting.rows_written", rows)
    tracer.count("reporting.bytes_written", sum(p.stat().st_size for p in mode_dir.glob("*.csv")))


# The public functions that trainer, cli and reporting call in other modules.
TARGETS = [
    Target("config", "load_config"),
    Target("config", "save_config"),
    Target("tasks", "make_conflict_set"),
    Target("tasks", "subset_batch"),
    Target("model", "build_model"),
    Target("model", "task_loss_and_gradient"),
    Target("model", "joint_gradient"),
    Target("model", "eval_metric"),
    Target("surgery", "build_conflict_report", _count_pairs),
    Target("surgery", "surgery", _count_projected_groups),
    Target("surgery", "merge"),
    Target("optim", "adamw_step"),
    Target("optim", "linear_decay_lr"),
    Target("trainer", "build_task_set"),
    Target("trainer", "run_mode", _count_backward_passes),
    Target("trainer", "train_step"),
    Target("reporting", "build_summary"),
    Target("reporting", "write_metrics", _count_written),
    Target("reporting", "summarize_dir"),
    Target("adapter", "save_adapter"),
]


@dataclass
class Repeat:
    """One repetition: calibrated times, the same times uncalibrated, and the
    calibration kernel's own times."""

    run_s: float
    summarize_s: float
    step_us: dict[str, float]
    raw_run_s: float
    raw_summarize_s: float
    raw_step_us: dict[str, float]
    kernel_s: list[float]
    modes: int
    failures: list[str]


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    repeats: int
    failures: list[str] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    broken_hooks: list[str] = field(default_factory=list)
    tracer: Tracer | None = None
    raw: dict[str, float] = field(default_factory=dict)


def load_reference(workload: str, seed: int) -> dict[str, float] | None:
    """Stored final ``avg`` per mode, for the reference seed only."""
    ref = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    if seed != ref["seed"]:
        return None
    return ref["final_avg"][workload]


def _bits(cells: dict | None) -> dict | None:
    if cells is None:
        return None
    return {k: None if v is None else float(v).hex() for k, v in cells.items()}


def check_modes(cfg, memory, disk, reference: dict[str, float] | None) -> list[str]:
    """One line per mode run that fails the gate."""
    failures = []
    for mode in cfg.modes:
        final = memory.metrics[mode]
        problems = []
        if not all(math.isfinite(v) for v in final.values()):
            problems.append(f"non-finite final metric {final}")
        if (_bits(disk.metrics.get(mode)) != _bits(final)
                or _bits(disk.recovery.get(mode)) != _bits(memory.recovery.get(mode))):
            problems.append("summary read back from the CSVs differs from the in-memory one")
        if reference is not None:
            ref = reference[mode]
            if not abs(final["avg"] - ref) <= REL_TOL * abs(ref):
                problems.append(f"final avg {final['avg']!r} is off reference {ref!r}")
        if problems:
            failures.append(f"{mode}: " + "; ".join(problems))
    return failures


def _no_span(name: str):
    return contextlib.nullcontext()


def calibration_kernel() -> Callable[[], float]:
    """A fixed piece of work shaped like training steps; returns its seconds.

    The machines this runs on change speed by tens of percent within seconds
    (other tenants share the cores), far more than the gains a change of the
    program brings. So every timed segment sits between two runs of this
    kernel, and is scaled by ``CAL_REF_S`` over their mean: the result reads
    as seconds on a machine where the kernel takes ``CAL_REF_S``. The kernel
    mixes small matrix products, as in forward and backward, with pair loops
    over Python objects, as in the conflict report; either kind alone tracked
    the program's speed less well.
    """
    rng = np.random.default_rng(0)
    w0 = 0.1 * rng.standard_normal((16, 16))
    x = rng.standard_normal((16, 48))
    y = rng.standard_normal((16, 48))
    wide = rng.standard_normal((64, 64))
    pool = rng.standard_normal((64, 512))
    vecs = list(rng.standard_normal((16, 64)))

    def run() -> float:
        start = time.perf_counter()
        w = w0.copy()
        for i in range(600):
            h = np.tanh(w @ x)
            g = (h - y) * (1.0 - h * h)
            w = w - 1e-3 * (g @ x.T)
            if i % 50 == 0:
                np.tanh(wide @ pool)
        for _ in range(30):
            rows = {}
            for i, vi in enumerate(vecs):
                for j, vj in enumerate(vecs):
                    if i != j:
                        dot = float(vi @ vj)
                        rows[(i, j)] = (dot, dot < 0.0, str(i))
        return time.perf_counter() - start

    return run


def setup_kernel() -> float:
    """Build 30000 small Python objects; returns its seconds.

    It calibrates a cold start as ``calibration_kernel`` calibrates training:
    the cold start's time is scaled by ``CAL_REF_S`` over this kernel's
    time, taken right after it. A cold start is mostly module imports and
    object building in the interpreter. Over 120 cold starts on one machine,
    its time over this kernel's spread by 10-12%, and over the
    training-shaped kernel's by 15%.
    """
    start = time.perf_counter()
    objects = {}
    for i in range(30000):
        objects[str(i)] = [i, 2 * i, (i,)]
    return time.perf_counter() - start


def _uncalibrated() -> float:
    return CAL_REF_S


def run_repeat(cfg, task_set, run_dir: Path, reference, tracer: Tracer | None = None,
               label: str = "", calibrate: Callable[[], float] = _uncalibrated) -> Repeat:
    """Train, write and summarize every mode once, as ``run`` then ``summarize`` do.

    Each mode (training, eval, CSV and adapter writes) and the summarize step
    is one timed segment, scaled by the calibration runs on either side of it.
    """
    span = tracer.span if tracer is not None else _no_span
    if tracer is not None:
        tracer.run = f"run{label}"
    clock = time.perf_counter
    logs = {}
    step_us = {}
    raw_step_us = {}
    run_s = raw_run_s = 0.0
    kernel_s = [calibrate()]
    with span("bench.run"):
        for i, mode in enumerate(cfg.modes):
            t0 = clock()
            if i == 0:
                config.save_config(cfg, run_dir / "config.json")
            t1 = clock()
            log, models = trainer.run_mode(cfg, mode, task_set)
            train_s = clock() - t1
            mode_dir = run_dir / mode
            reporting.write_metrics(log, mode_dir)
            for idx, model in enumerate(models):
                prefix = f"task{idx}_" if mode == config.SINGLE_TASK else ""
                for li, layer in enumerate(model.layers):
                    adapter.save_adapter(layer.adapter, mode_dir / f"{prefix}adapter_L{li}.json")
            logs[mode] = log
            if i == len(cfg.modes) - 1:
                memory = reporting.build_summary(logs)
            segment_s = clock() - t0
            kernel_s.append(calibrate())
            speed = 2 * CAL_REF_S / (kernel_s[-2] + kernel_s[-1])
            raw_step_us[mode] = train_s / cfg.total_steps() * 1e6
            step_us[mode] = raw_step_us[mode] * speed
            run_s += segment_s * speed
            raw_run_s += segment_s

    if tracer is not None:
        tracer.run = f"summarize{label}"
    t0 = clock()
    with span("bench.summarize"):
        disk = reporting.summarize_dir(run_dir)
    raw_summarize_s = clock() - t0
    kernel_s.append(calibrate())
    summarize_s = raw_summarize_s * 2 * CAL_REF_S / (kernel_s[-2] + kernel_s[-1])
    if tracer is not None:
        tracer.run = ""
    return Repeat(run_s, summarize_s, step_us, raw_run_s, raw_summarize_s, raw_step_us,
                  kernel_s, len(cfg.modes), check_modes(cfg, memory, disk, reference))


def measure(src: Path, work_dir: Path, raw_config: dict, seconds: float, trace: bool,
            reference: dict[str, float] | None = None, workers: int = WORKERS) -> Result:
    """Repeat the workload for at least ``seconds`` and at least once.

    An untraced run spreads the time over ``workers`` worker processes, one
    after another; a traced run stays in this process.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=work_dir))
    try:
        config_path = scratch / "config.json"
        config_path.write_text(json.dumps(raw_config, indent=2), encoding="utf-8")
        if trace:
            return _measure_traced(scratch, config_path, seconds, reference)
        return _measure_untraced(src, scratch, config_path, seconds, reference, workers)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def repeat_in(scratch: Path, index: int, cfg, task_set, reference, **kwargs) -> Repeat:
    run_dir = scratch / f"rep{index}"
    run_dir.mkdir()
    try:
        return run_repeat(cfg, task_set, run_dir, reference, **kwargs)
    finally:
        shutil.rmtree(run_dir)


def _gate_totals(repeats: list[Repeat]) -> tuple[int, int, list[str]]:
    failures = [f for r in repeats for f in r.failures]
    return sum(r.modes for r in repeats), len(failures), failures


def _measure_untraced(src, scratch, config_path, seconds, reference, workers) -> Result:
    deadline = time.perf_counter() + seconds
    setup: list[float] = []
    raw_setup: list[float] = []
    setup_kernel_s: list[float] = []
    rss: list[float] = []
    repeats: list[Repeat] = []
    for k in range(workers):
        job = {"src": str(src), "config": str(config_path), "run_dir": str(scratch / f"worker{k}"),
               "budget": max(0.0, (deadline - time.perf_counter()) / (workers - k)),
               "reference": reference}
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(job)],
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark worker exited with {proc.returncode}:\n{proc.stderr}")
        out = json.loads(proc.stdout.splitlines()[-1])
        setup.append(out["setup_s"])
        raw_setup.append(out["raw_setup_s"])
        setup_kernel_s.append(out["setup_kernel_s"])
        rss.append(out["peak_rss_mb"])
        repeats += [Repeat(**r) for r in out["repeats"]]

    median = statistics.median
    metrics = {
        "setup_s": (median(setup), "s"),
        "run_s": (median(r.run_s for r in repeats), "s"),
        "summarize_s": (median(r.summarize_s for r in repeats), "s"),
    }
    raw = {
        "setup_s": median(raw_setup),
        "run_s": median(r.raw_run_s for r in repeats),
        "summarize_s": median(r.raw_summarize_s for r in repeats),
    }
    for mode in repeats[0].step_us:
        metrics[f"step_us.{mode}"] = (median(r.step_us[mode] for r in repeats), "us")
        raw[f"step_us.{mode}"] = median(r.raw_step_us[mode] for r in repeats)
    metrics["peak_rss_mb"] = (max(rss), "MiB")
    raw["setup_kernel_s"] = median(setup_kernel_s)
    raw["kernel_s"] = median(k for r in repeats for k in r.kernel_s)
    attempted, failed, failures = _gate_totals(repeats)
    return Result(metrics, attempted, failed, len(repeats), failures, raw=raw)


# Derived per-layer metrics, by the target whose hook counts them.
_DERIVED = {
    "trainer.run_mode": ["model.backward_passes_per_step"],
    "surgery.build_conflict_report": ["surgery.pairs_checked", "surgery.pairs_conflicted",
                                      "surgery.conflict_frac"],
    "surgery.surgery": ["surgery.groups_projected"],
    "reporting.write_metrics": ["reporting.rows_written", "reporting.bytes_written"],
}


def _measure_traced(scratch, config_path, seconds, reference) -> Result:
    tracer = Tracer()
    with tracer.patched(TARGETS) as absent:
        tracer.run = "setup"
        with tracer.span("bench.setup"):
            cfg = config.load_config(config_path)
            task_set = trainer.build_task_set(cfg)
        tracer.run = ""

    # Alternate untraced and traced repetitions so both see the same machine,
    # and calibrate each whole repetition from outside its spans.
    calibrate = calibration_kernel()
    untraced: list[float] = []
    traced: list[Repeat] = []
    traced_cal: list[float] = []
    gated: list[Repeat] = []
    cal_before = calibrate()
    start = time.perf_counter()
    while not (untraced and traced and time.perf_counter() - start >= seconds):
        tracing = len(untraced) > len(traced)
        if tracing:
            with tracer.patched(TARGETS):
                repeat = repeat_in(scratch, len(gated), cfg, task_set, reference,
                                   tracer=tracer, label=str(len(traced)))
        else:
            repeat = repeat_in(scratch, len(gated), cfg, task_set, reference)
        cal_after = calibrate()
        run_s = repeat.run_s * 2 * CAL_REF_S / (cal_before + cal_after)
        cal_before = cal_after
        gated.append(repeat)
        if tracing:
            traced.append(repeat)
            traced_cal.append(run_s)
        else:
            untraced.append(run_s)

    # Report the traced repetition with the median run time, so that its
    # per-layer self times add up to exactly the run time reported beside them.
    chosen = sorted(range(len(traced)), key=lambda i: traced[i].run_s)[(len(traced) - 1) // 2]
    runs = {"setup", f"run{chosen}", f"summarize{chosen}"}
    totals = span_totals(tracer.spans, runs)
    counts = defaultdict(float)
    for (run, name), n in tracer.counts.items():
        if run in runs:
            counts[name] += n

    metrics: dict[str, tuple[float, str]] = {}
    for target in TARGETS:
        name = target.span_name
        if name in absent:
            continue
        calls, inclusive, self_s = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.s"] = (inclusive, "s")
        if target.layer == "trainer":
            metrics[f"{name}.self_s"] = (self_s, "s")

    derived = {
        "model.backward_passes_per_step": (
            counts["model.backward_passes"] / max(1, totals.get("trainer.train_step", (0,))[0]),
            "count"),
        "surgery.pairs_checked": (int(counts["surgery.pairs_checked"]), "count"),
        "surgery.pairs_conflicted": (int(counts["surgery.pairs_conflicted"]), "count"),
        "surgery.conflict_frac": (
            counts["surgery.pairs_conflicted"] / counts["surgery.pairs_checked"]
            if counts["surgery.pairs_checked"] else 0.0, "ratio"),
        "surgery.groups_projected": (int(counts["surgery.groups_projected"]), "count"),
        "reporting.rows_written": (int(counts["reporting.rows_written"]), "count"),
        "reporting.bytes_written": (int(counts["reporting.bytes_written"]), "bytes"),
    }
    dropped = set(absent) | tracer.broken_hooks
    if "trainer.train_step" in absent:
        dropped.add("trainer.run_mode")
    for source, names in _DERIVED.items():
        if source not in dropped:
            metrics.update({n: derived[n] for n in names})

    run_totals = span_totals(tracer.spans, {f"run{chosen}"})
    layer_self = defaultdict(float)
    for name, (_, _, self_s) in run_totals.items():
        layer_self[name.split(".")[0]] += self_s
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = (layer_self[layer], "s")
    run_s = run_totals["bench.run"][1]
    program_s = sum(s for layer, s in layer_self.items() if layer not in ("bench", "trace"))
    metrics["trace.run_s"] = (run_s, "s")
    metrics["trace.attributed_frac"] = (program_s / run_s, "ratio")
    traced_run_s = statistics.median(traced_cal)
    untraced_run_s = statistics.median(untraced)
    metrics["trace.traced_run_s"] = (traced_run_s, "s")
    metrics["trace.untraced_run_s"] = (untraced_run_s, "s")
    metrics["trace.overhead_frac"] = (traced_run_s / untraced_run_s - 1.0, "ratio")

    attempted, failed, failures = _gate_totals(gated)
    return Result(metrics, attempted, failed, len(gated), failures,
                  absent, sorted(tracer.broken_hooks), tracer)
