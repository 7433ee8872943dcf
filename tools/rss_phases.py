#!/usr/bin/env python3
"""Resident memory after each phase of a benchmark worker, with and without the harness floor.

Usage: python tools/rss_phases.py --workload W [--repeats N]

Runs two child processes of this script, each doing what one
``perfbench/worker.py`` does, with the same ``perfbench/bench.py`` calls,
for exactly N repetitions (default 8) of the workload's seed-0 config:

* ``harness`` - as the worker: setup (package import, config load, task
  generation), ``bench.setup_kernel`` and one calibration run, then the
  repetitions;
* ``program`` - the same without ``bench.setup_kernel``, so the peak it
  reads is the program's own.

A repetition is one ``bench.repeat_in`` call, whose calibration runs are
wrapped to mark the RSS first. Each child prints its current and peak RSS
(MiB) after setup, after the setup kernel, at each repetition's start,
after each mode's writes, after each summary, and at its end. The script
then prints the harness floor (the harness child's peak after the setup
kernel), the harness child's final peak (what a worker reports as
``peak_rss_mb``) and the program's peak over setup (the program child's
final peak minus its RSS after setup). It imports ``perfbench/`` and
changes nothing there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
VARIANTS = ("harness", "program")


def rss_mib() -> tuple[float, float]:
    """(current, peak) resident set size of this process in MiB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        current = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    return current, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(variant: str, workload: str, repeats: int, work: Path) -> None:
    """One worker-shaped process; prints one line per phase, then a JSON line."""
    import bench
    from workloads import build_config

    rows: list[tuple[str, float, float]] = []

    def mark(phase: str) -> None:
        rows.append((phase, *rss_mib()))
        print(f"  {variant:<8} {phase:<34} {rows[-1][1]:>8.2f} {rows[-1][2]:>8.2f}", flush=True)

    config_path = work / "config.json"
    config_path.write_text(json.dumps(build_config(ROOT, workload, 0)), encoding="utf-8")
    cfg = bench.config.load_config(config_path)
    task_set = bench.trainer.build_task_set(cfg)
    mark("setup")
    if variant == "harness":
        bench.setup_kernel()
    calibrate = bench.calibration_kernel()
    calibrate()  # as the worker: the first run pays numpy's one-time costs
    mark("setup kernel" if variant == "harness" else "calibration (no setup kernel)")
    floor = rows[-1][2]
    for rep in range(repeats):
        # run_repeat calibrates before its first mode, after each mode's
        # writes and after the summary: mark each of those points, then calibrate
        phases = iter([f"rep {rep} start", *(f"rep {rep} {mode} written" for mode in cfg.modes),
                       f"rep {rep} summarize"])
        repeat = bench.repeat_in(work, rep, cfg, task_set, None,
                                 calibrate=lambda: (mark(next(phases)), calibrate())[1])
        if repeat.failures:
            raise SystemExit(f"rep {rep}: " + "; ".join(repeat.failures))
    mark("end")
    print(json.dumps({"setup": rows[0][1], "floor": floor, "peak": rows[-1][2]}))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--repeats", type=int, default=8)
    parser.add_argument("--child", choices=VARIANTS, help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.child:
        child(args.child, args.workload, args.repeats, Path(args.work))
        return 0

    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})  # as perfbench/run.py
    print(f"{args.workload}, seed 0, {args.repeats} repetition(s); RSS in MiB")
    print(f"  {'child':<8} {'after':<34} {'current':>8} {'peak':>8}")
    results = {}
    for variant in VARIANTS:
        with tempfile.TemporaryDirectory(prefix="rss_phases_") as work:
            cmd = [sys.executable, __file__, "--workload", args.workload, "--repeats",
                   str(args.repeats), "--child", variant, "--work", work]
            done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(done.stdout, end="")
                print(f"error: the {variant} child exited {done.returncode}", file=sys.stderr)
                return 1
        *lines, last = done.stdout.splitlines()
        print("\n".join(lines))
        results[variant] = json.loads(last)
    harness, program = results["harness"], results["program"]
    print(f"harness floor (setup + setup kernel): {harness['floor']:.2f} MiB")
    print(f"harness peak (a worker's peak_rss_mb): {harness['peak']:.2f} MiB")
    print(f"program peak: {program['peak']:.2f} MiB, {program['peak'] - program['setup']:.2f} MiB "
          f"over its {program['setup']:.2f} MiB after setup")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
