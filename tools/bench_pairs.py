#!/usr/bin/env python3
"""Alternate benchmark runs of this tree and a parent revision, and judge every metric.

Usage: python tools/bench_pairs.py <parent-rev> --workload W --pairs N --seconds S
       [--first-seed F]

Exports <parent-rev> with ``git archive``, as ``output_gate.py`` does, and
copies the files of this tree that git tracks or would track (its uncommitted
edits included, no bytecode cache or run output), each into a new directory.
Then it runs ``perfbench/run.py --workload W --seed F+i --seconds S --trace 0``
once in each copy for every pair i < N, with ``PYTHONDONTWRITEBYTECODE=1``:
no run finds a cache of ``src/``, so every worker compiles it, as in a fresh
checkout. F defaults to 0, and a fresh F checks a claim again on seeds not
used while writing the change. Even pairs run the parent first and odd pairs
this tree first, so neither side always runs second on a machine whose speed
drifts. For every end-to-end metric ``BENCHMARK.json`` declares, it
prints each side's median and quartiles, the change's relative gap, its wins
(pairs where it reads better than the parent; ties count for neither side)
and its verdicts:

* ``gain``: the change wins at least nine tenths of the pairs and its median
  beats the parent's by more than the parent's interquartile range;
* ``worse``: its median is worse than the parent's by more than the metric's
  bound;
* ``unresolved``, in place of ``-`` (neither verdict): the parent's
  interquartile range is wider than the metric's bound times its median, so
  the runs spread too widely to call the metric unchanged, and not every
  run of the change reads better than every run of the parent.

It also prints each side's failed mode runs. Exits 0 after the table, 1 if a
benchmark run fails, and 2 on a usage error or a revision git cannot export.
Each run starts in a new session; on SIGTERM the tool kills the running
run's process group, its worker included, removes both copies and exits 143.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from output_gate import ROOT, exit_on_sigterm, export, run_in_session


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of values, interpolated
    between order statistics (``statistics.quantiles``' inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The pairs' statistics for one metric: parent[i] and change[i] are pair i's runs."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gap = sign * (pm - cm)  # > 0: the change's median is better
    every_run_better = min(sign * p for p in parent) > max(sign * c for c in change)
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "rel": (cm - pm) / pm if pm else 0.0,
            "gain": 10 * wins >= 9 * len(parent) and gap > p3 - p1,
            "worse": -gap > bound * abs(pm),
            "unresolved": p3 - p1 > bound * abs(pm) and not every_run_better}


def copy_tree(dest: Path) -> None:
    """Copy this tree's files that git tracks or would track to dest."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        if (ROOT / name).is_file():  # not a tracked file deleted in the tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run's result: the last stdout line of perfbench/run.py."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # a run leaves no cache for the next
    done = run_in_session(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env)
    if done.returncode != 0:
        print(done.stdout + done.stderr, file=sys.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 0 or args.first_seed < 0:
        parser.error("--pairs must be >= 1, and --seconds and --first-seed >= 0")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        trees["parent"].mkdir()
        export(args.parent, trees["parent"])
        copy_tree(trees["change"])
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                print(f"pair {i} {side}", file=sys.stderr, flush=True)
                try:
                    results[side].append(bench(trees[side], args.workload, args.first_seed + i,
                                               args.seconds))
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
    print(f"{args.workload}: {args.pairs} pair(s) of {args.seconds:g} s runs against "
          f"{args.parent}, seeds {args.first_seed}..{args.first_seed + args.pairs - 1}")
    for side, runs in results.items():
        print(f"  {side} failed {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} mode runs")
    print(f"  {'metric':<26} {'parent q1 / median / q3':>34} {'change q1 / median / q3':>34}"
          f" {'change':>8} {'wins':>6}  verdict")
    for metric in declared:
        name = metric["name"]
        parent, change = ([r["metrics"][name]["value"] for r in results[side]]
                          for side in ("parent", "change"))
        v = judge(parent, change, metric["better"], metric["bound"])
        verdict = (", ".join(word for word in ("gain", "worse") if v[word])
                   or ("unresolved" if v["unresolved"] else "-"))
        print(f"  {name:<26} {' / '.join(f'{q:.4g}' for q in v['parent']):>34}"
              f" {' / '.join(f'{q:.4g}' for q in v['change']):>34} {v['rel']:>+8.1%}"
              f" {v['wins']:>3}/{args.pairs:<2}  {verdict}")
    return 0


if __name__ == "__main__":
    exit_on_sigterm()
    sys.exit(main(sys.argv[1:]))
