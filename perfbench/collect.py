"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/collect.py --label baseline --seeds 1 2 3 4 5 6 7 8 9 10 \
        --out perfbench/BENCH_baseline.json

For each workload of ``BENCHMARK.json``, runs ``run.py`` untraced once per
seed, one after another, and then once traced with the first seed. For every
end-to-end metric it reports the median of the per-seed values and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. A spread
under a third of the metric's bound is marked steady. The JSON written to
``--out`` holds the environment, every per-seed value, these summaries, the
per-seed uncalibrated times and kernel times from each run's ``raw`` line
with their medians, and the traced split.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    raw = next((json.loads(line[4:]) for line in lines if line.startswith("raw ")), {})
    return env, raw, json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record: dict = {"label": args.label, "run_seconds": seconds, "seeds": args.seeds,
                    "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        raws = []
        for seed in args.seeds:
            env, raw, result = run_once(workload, seed, seconds, 0)
            record.setdefault("env", env)
            runs.append(result)
            raws.append(raw)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            steady = share < bound / 3
            summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                             "q1": q1, "q3": q3, "spread": share, "bound": bound,
                             "steady": steady, "values": values}
            print(f"  {name:<26} median {median:>12.6g}  spread {share:7.2%}  "
                  f"bound {bound:.0%}  {'steady' if steady else 'NOT STEADY'}", flush=True)
        uncalibrated = {}
        for name in raws[0]:
            values = [r[name] for r in raws]
            uncalibrated[name] = {"median": statistics.median(values), "values": values}
        _, _, traced = run_once(workload, args.seeds[0], seconds, 1)
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summary,
            "uncalibrated": uncalibrated,
            "trace": {"seed": args.seeds[0], "correct": traced["correct"],
                      "metrics": traced["metrics"]},
        }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
