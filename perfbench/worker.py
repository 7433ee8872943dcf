"""One worker process of an untraced benchmark run.

    python3 perfbench/worker.py '<job as JSON>'

The job names the package's ``src`` directory, the config file, a scratch
directory, a time budget in seconds and the reference final metrics (or
null). The worker times its own cold start (package import, config load and
validation, task generation: everything before the first training step),
then repeats the workload until the budget is spent, at least once, and
prints one JSON line with ``setup_s`` (calibrated), ``raw_setup_s``, the
kernel time that calibrated it, ``peak_rss_mb`` and the repetitions.

A run spreads its time over several workers because each process gets its
own randomized memory layout, which moves its speed by several percent for
its whole life; a median over repetitions from several processes averages
that out.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402


def main(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    import bench

    cfg = bench.config.load_config(job["config"])
    task_set = bench.trainer.build_task_set(cfg)
    setup_raw = time.perf_counter() - _T0
    setup_kernel_s = bench.setup_kernel()

    calibrate = bench.calibration_kernel()
    calibrate()  # the first run pays numpy's one-time costs

    run_dir = Path(job["run_dir"])
    run_dir.mkdir(parents=True)
    repeats = []
    start = time.perf_counter()
    while not repeats or time.perf_counter() - start < job["budget"]:
        repeats.append(bench.repeat_in(run_dir, len(repeats), cfg, task_set, job["reference"],
                                       calibrate=calibrate))
    return {
        "setup_s": setup_raw * bench.CAL_REF_S / setup_kernel_s,
        "raw_setup_s": setup_raw,
        "setup_kernel_s": setup_kernel_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "repeats": [asdict(r) for r in repeats],
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
