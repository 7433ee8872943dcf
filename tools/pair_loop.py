#!/usr/bin/env python3
"""Time surgery's pair loop on the Gram matrices a workload's ORTHO runs hand it.

Usage: python tools/pair_loop.py --workload W [--repeats N]

Trains ORTHO_FLAT and ORTHO_STRUCTURED once each on the workload's seed-0
config (``perfbench/workloads.build_config``), keeping every ``(gram, order)``
that ``surgery._coefficients`` is called with. Per mode it prints the call
count, the task count T, the mean projections fired per call (nonzero
off-diagonal coefficients) and the best of N (default 5) timed passes over
the kept calls, in µs per call: a layer-level figure for a function that is
not a benchmark target.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import numpy as np  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

from ortho_lora import surgery  # noqa: E402
from ortho_lora.config import ORTHO_FLAT, ORTHO_STRUCTURED, config_from_dict  # noqa: E402
from ortho_lora.trainer import run_mode  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    config = config_from_dict(build_config(ROOT, args.workload, 0))
    loop = surgery._coefficients
    print(f"{'mode':<18} {'calls':>6} {'T':>3} {'fired/call':>10} {'us/call':>8}")
    for mode in (ORTHO_FLAT, ORTHO_STRUCTURED):
        calls = []

        def keep(gram, order):
            calls.append((gram.copy(), order))
            return loop(gram, order)

        surgery._coefficients = keep
        try:
            run_mode(config, mode)
        finally:
            surgery._coefficients = loop
        coeffs = [loop(gram, order) for gram, order in calls]  # C's diagonal is all ones
        fired = sum(np.count_nonzero(c) - len(c) for c in coeffs if c is not None)
        best = float("inf")
        for _ in range(args.repeats):
            start = time.perf_counter()
            for gram, order in calls:
                loop(gram, order)
            best = min(best, time.perf_counter() - start)
        print(f"{mode:<18} {len(calls):>6} {config.tasks.num_tasks:>3} "
              f"{fired / len(calls):>10.2f} {best / len(calls) * 1e6:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
