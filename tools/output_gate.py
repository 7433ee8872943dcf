#!/usr/bin/env python3
"""Check that this tree's run outputs are byte-identical to a parent revision's.

Usage: python tools/output_gate.py <parent-rev>

Exports <parent-rev> with ``git archive`` into a temporary directory, runs
``ortho-lora run`` on each gate config with that tree's ``src/`` and with
this tree's ``src/``, and compares every file the runs write (CSVs, adapter
dumps, config.json) with ``cmp``. Each tree then runs ``ortho-lora
summarize`` on each of its run directories, and the two trees' stdout and
exit codes are compared. Exits 0 when every file and every summary is
identical, 1 after listing the files or summaries that differ or that only
one tree wrote, and 2 on a usage error or a revision git cannot export.

The gate configs are all built from this tree's configs/default.json:

* default           - as committed, all four modes;
* many-tasks        - 16 tasks, 2 epochs, all four modes;
* mixed-role-orig   - 2-layer [16, 12, 10], rank 3, regression and
                      classification tasks, weight_decay 0.05, 4 epochs,
                      PER_ROLE_CONCAT scope, projection against the original
                      gradients, all four modes;
* mixed-matrix-mut  - the same under PER_MATRIX, against the mutated ones;
* two-tasks-quiet   - 2 tasks with ``record_conflicts`` false, all four
                      modes: JOINT writes no conflict rows, and the ORTHO
                      modes report a single task pair.
* reshuffle         - n_train 40, batch_size 16 and steps_per_epoch 7, so
                      every epoch draws fresh data orders three times
                      mid-epoch; regression and classification tasks, 4
                      epochs, all four modes.
* one-task          - 1 task, conflict_level 0, 2 epochs, all four modes:
                      a gradient row is as wide as the model's parameter
                      vector, SINGLE_TASK's stack has one row, and no mode
                      has a task pair to report.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALL_MODES = ["SINGLE_TASK", "JOINT", "ORTHO_FLAT", "ORTHO_STRUCTURED"]


def gate_configs(default: dict) -> dict[str, dict]:
    base = copy.deepcopy(default)
    base["modes"] = list(ALL_MODES)
    many = copy.deepcopy(base)
    many["tasks"]["num_tasks"] = 16
    many["schedule"]["epochs"] = 2
    mixed = copy.deepcopy(base)
    mixed["model"].update(layer_dims=[16, 12, 10], rank=3, alpha=6.0)
    mixed["optimizer"]["weight_decay"] = 0.05
    mixed["schedule"]["epochs"] = 4
    mixed["tasks"]["kind"] = ["regression", "classification", "regression"]
    role, matrix = copy.deepcopy(mixed), copy.deepcopy(mixed)
    role["surgery"].update(scope="PER_ROLE_CONCAT", project_against="original")
    matrix["surgery"].update(scope="PER_MATRIX", project_against="mutated")
    quiet = copy.deepcopy(base)
    quiet["tasks"]["num_tasks"] = 2
    quiet["surgery"]["record_conflicts"] = False
    reshuffle = copy.deepcopy(base)
    reshuffle["tasks"].update(n_train=40, kind=["regression", "classification", "regression"])
    reshuffle["schedule"].update(epochs=4, batch_size=16, steps_per_epoch=7)
    one = copy.deepcopy(base)
    one["tasks"].update(num_tasks=1, conflict_level=0.0)
    one["schedule"]["epochs"] = 2
    return {"default": base, "many-tasks": many, "mixed-role-orig": role,
            "mixed-matrix-mut": matrix, "two-tasks-quiet": quiet, "reshuffle": reshuffle,
            "one-task": one}


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
    if archive.returncode != 0:
        print(f"git archive {rev} failed: {archive.stderr.decode().strip()}", file=sys.stderr)
        sys.exit(2)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_all(src: Path, configs: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    for cfg in sorted(configs.glob("*.json")):
        subprocess.run([sys.executable, "-m", "ortho_lora.cli", "run", str(cfg),
                        "--out", str(out / cfg.stem)], env=env, check=True,
                       stdout=subprocess.DEVNULL)


def summarize_all(src: Path, runs: Path) -> dict[str, tuple[int, str]]:
    """(exit code, stdout) of ``ortho-lora summarize`` per run directory."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = {}
    for run_dir in sorted(p for p in runs.iterdir() if p.is_dir()):
        done = subprocess.run([sys.executable, "-m", "ortho_lora.cli", "summarize", str(run_dir)],
                              env=env, capture_output=True, text=True)
        out[run_dir.name] = (done.returncode, done.stdout)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/output_gate.py <parent-rev>", file=sys.stderr)
        return 2
    default = json.loads((ROOT / "configs" / "default.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="output_gate_") as tmp:
        tmp = Path(tmp)
        (tmp / "parent").mkdir()
        export(argv[0], tmp / "parent")
        configs = tmp / "configs"
        configs.mkdir()
        for name, raw in gate_configs(default).items():
            (configs / f"{name}.json").write_text(json.dumps(raw), encoding="utf-8")
        runs, summaries = {}, {}
        for label, src in (("parent", tmp / "parent" / "src"), ("this", ROOT / "src")):
            runs[label] = tmp / f"runs_{label}"
            run_all(src, configs, runs[label])
            summaries[label] = summarize_all(src, runs[label])
        files = {label: {p.relative_to(run) for p in run.rglob("*") if p.is_file()}
                 for label, run in runs.items()}
        differ = sorted(files["parent"] ^ files["this"])
        for rel in sorted(files["parent"] & files["this"]):
            if subprocess.run(["cmp", "-s", str(runs["parent"] / rel),
                               str(runs["this"] / rel)]).returncode != 0:
                differ.append(rel)
    compared = len(files["parent"] | files["this"])
    run_names = sorted(summaries["parent"].keys() | summaries["this"].keys())
    summaries_differ = [f"summarize {name}" for name in run_names
                        if summaries["parent"].get(name) != summaries["this"].get(name)]
    if differ or summaries_differ:
        print(f"output gate FAILED against {argv[0]}: {len(differ)} of {compared} files and "
              f"{len(summaries_differ)} of {len(run_names)} summaries differ")
        for rel in sorted(differ) + summaries_differ:
            print(f"  {rel}")
        return 1
    print(f"output gate passed against {argv[0]}: all {compared} files byte-identical and "
          f"all {len(run_names)} summarize outputs identical on {len(gate_configs(default))} configs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
