"""Golden bytes: the sha256 of every file an ``ortho-lora run`` writes, and of
``ortho-lora summarize`` on its directory, against the digests committed in
``tests/golden/<name>.sha256``: for ``configs/default.json`` as committed,
and for five gate configs of ``tools/output_gate.py`` (GATE_CONFIGS): the
one-task config, and every gate config with tasks of both kinds, whose
classification loss no default run computes.

A change that moves output bits by design regenerates the digests, in the
same change, with

    PYTHONPATH=src python tests/test_golden.py

and records that in CHANGES.md, as it records a change to the output gate.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from ortho_lora.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "default.json"
GOLDEN = ROOT / "tests" / "golden"
SUMMARY = "summarize.stdout"  # the entry of summarize's output, after the files
GATE_CONFIGS = ["one-task", "mixed-role-orig", "mixed-matrix-orig", "reshuffle", "batch-one"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gate_config(name: str, folder: Path) -> Path:
    """The gate config name, built by tools/output_gate.py from CONFIG, as a
    file in folder."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        gate = importlib.import_module("output_gate")
    finally:
        sys.path.remove(str(ROOT / "tools"))
    raw = gate.gate_configs(json.loads(CONFIG.read_text(encoding="utf-8")))[name]
    path = folder / f"{name}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def run_digests(config: Path, out: Path) -> dict[str, str]:
    """The sha256 of every file a run of config writes into out, by path relative
    to out in sorted order, then of summarize's stdout on out."""
    with redirect_stdout(io.StringIO()):
        assert run_cli(["run", str(config), "--out", str(out)]) == 0
    found = {p.relative_to(out).as_posix(): sha256(p.read_bytes())
             for p in sorted(out.rglob("*")) if p.is_file()}
    summary = io.StringIO()
    with redirect_stdout(summary):
        assert run_cli(["summarize", str(out)]) == 0
    return {**found, SUMMARY: sha256(summary.getvalue().encode("utf-8"))}


def read_golden(name: str) -> dict[str, str]:
    lines = (GOLDEN / f"{name}.sha256").read_text(encoding="utf-8").splitlines()
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def numeric_stack() -> str:
    """numpy's version and BLAS vendor: the likely cause when only bits moved."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # a numpy before 1.26 has no mode="dicts"
        vendor = "unknown"
    return f"numpy {np.__version__}, BLAS {vendor}"


def assert_golden(name: str, got: dict[str, str]) -> None:
    """got against the digests of name, naming the first entry that differs."""
    want = read_golden(name)
    names = sorted(got.keys() | want.keys(), key=lambda entry: (entry == SUMMARY, entry))
    differ = next((entry for entry in names if got.get(entry) != want.get(entry)), None)
    if differ is None:
        return
    how = ("not written" if differ not in got else "not in the digests" if differ not in want
           else "other bytes")
    raise AssertionError(f"{differ} differs from tests/golden/{name}.sha256 ({how}) under "
                         f"{numeric_stack()}; if the change moves output bits by design, "
                         f"regenerate them with `PYTHONPATH=src python tests/test_golden.py` "
                         f"and record that in CHANGES.md")


def test_default_run_writes_the_golden_bytes(tmp_path):
    assert_golden("default", run_digests(CONFIG, tmp_path / "run"))


@pytest.mark.parametrize("name", GATE_CONFIGS)
def test_gate_config_run_writes_the_golden_bytes(name, tmp_path):
    assert_golden(name, run_digests(gate_config(name, tmp_path), tmp_path / "run"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in ["default", *GATE_CONFIGS]:
            config = CONFIG if name == "default" else gate_config(name, Path(tmp))
            digests = run_digests(config, Path(tmp) / name)
            lines = "".join(f"{digest}  {entry}\n" for entry, digest in digests.items())
            (GOLDEN / f"{name}.sha256").write_text(lines, encoding="utf-8")
            print(f"wrote {len(digests)} digests to tests/golden/{name}.sha256", file=sys.stderr)
