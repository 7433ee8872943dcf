"""Benchmark entry point for ortho-lora.

    python3 perfbench/run.py --workload paper-default --seed 0 --seconds 55 --trace 0

Builds the workload's config from ``configs/default.json`` and the seed,
then measures it for ``--seconds`` seconds with the package in ``src/`` of
the same checkout. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer split. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, the same metrics in readable form and, untraced, a
``raw`` line: the time metrics' medians in wall-clock units before
calibration, and the calibration kernels' median times. Scratch files go
to ``.perfbench_work/`` in the checkout; a traced run leaves its spans there.

BLAS is pinned to one thread: the arrays are tiny, and on a shared machine
a second BLAS thread only adds noise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "ortho_lora" / "__init__.py", ROOT / "configs" / "default.json")
               if not p.is_file()]
    if missing:
        print(f"error: not an ortho-lora checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0:
        print("error: --seed and --seconds must be >= 0", file=sys.stderr)
        return 2

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench
    from workloads import WORKLOADS, build_config

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    result = bench.measure(
        SRC, WORK_DIR, build_config(ROOT, args.workload, args.seed), args.seconds,
        trace=bool(args.trace), reference=bench.load_reference(args.workload, args.seed),
    )

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result.repeats} repetition(s)")
    for name in result.absent:
        print(f"absent: {name}")
    for name in result.broken_hooks:
        print(f"counts dropped: the hook on {name} failed")
    if result.raw:
        print("raw " + json.dumps(result.raw))
    for failure in result.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<40} {result.failed / result.attempted:>14.6g} "
          f"({result.failed} of {result.attempted} mode runs)")
    if result.tracer is not None:
        spans_path = WORK_DIR / f"spans-{args.workload}.csv"
        result.tracer.write_spans(spans_path)
        print(f"spans: {spans_path}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
