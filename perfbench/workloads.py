"""Benchmark workloads: ``configs/default.json`` plus a few overrides and the run seed.

Every workload runs all four training modes, so every per-mode step time
exists on every workload. The two stress different layers:

* ``paper-default`` - the shipped config (T=3 regression tasks, one 16x16
  layer, rank 4, batch 16, 930 steps per mode). Every layer shares the step.
* ``many-tasks`` - T=16. The T^2 pair loops of the conflict report and of
  surgery dominate, and the conflict rows make ``steps.csv`` large, so this
  one exercises surgery and the CSV writer and reader.

``many-tasks`` runs 2 epochs (60 steps): short mode runs give a run many
samples, each close in time to the calibration runs around it (see
``bench.calibration_kernel``), which is what keeps it steady on a shared
machine.
"""

from __future__ import annotations

import json
from pathlib import Path

ALL_MODES = ["SINGLE_TASK", "JOINT", "ORTHO_FLAT", "ORTHO_STRUCTURED"]


def _paper_default(raw: dict) -> None:
    pass


def _many_tasks(raw: dict) -> None:
    raw["tasks"]["num_tasks"] = 16
    raw["schedule"]["epochs"] = 2


WORKLOADS = {
    "paper-default": _paper_default,
    "many-tasks": _many_tasks,
}


def build_config(root: Path, workload: str, seed: int) -> dict:
    """The raw config dict one workload trains under one seed."""
    raw = json.loads((root / "configs" / "default.json").read_text(encoding="utf-8"))
    raw["seed"] = seed
    raw["modes"] = list(ALL_MODES)
    WORKLOADS[workload](raw)
    return raw
