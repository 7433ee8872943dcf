"""Golden bytes: the sha256 of every file an ``ortho-lora run`` of
``configs/default.json`` writes, and of ``ortho-lora summarize`` on its
directory, against the digests committed in ``tests/golden/default.sha256``.

A change that moves output bits by design regenerates the digests, in the
same change, with

    PYTHONPATH=src python tests/test_golden.py

and records that in CHANGES.md, as it records a change to the output gate.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from ortho_lora.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "default.json"
GOLDEN = ROOT / "tests" / "golden" / "default.sha256"
SUMMARY = "summarize.stdout"  # the entry of summarize's output, after the files


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(out: Path) -> dict[str, str]:
    """The sha256 of every file a run of CONFIG writes into out, by path relative
    to out in sorted order, then of summarize's stdout on out."""
    with redirect_stdout(io.StringIO()):
        assert run_cli(["run", str(CONFIG), "--out", str(out)]) == 0
    found = {p.relative_to(out).as_posix(): sha256(p.read_bytes())
             for p in sorted(out.rglob("*")) if p.is_file()}
    summary = io.StringIO()
    with redirect_stdout(summary):
        assert run_cli(["summarize", str(out)]) == 0
    return {**found, SUMMARY: sha256(summary.getvalue().encode("utf-8"))}


def read_golden() -> dict[str, str]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def numeric_stack() -> str:
    """numpy's version and BLAS vendor: the likely cause when only bits moved."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # a numpy before 1.26 has no mode="dicts"
        vendor = "unknown"
    return f"numpy {np.__version__}, BLAS {vendor}"


def test_default_run_writes_the_golden_bytes(tmp_path):
    got, want = run_digests(tmp_path / "run"), read_golden()
    names = sorted(got.keys() | want.keys(), key=lambda name: (name == SUMMARY, name))
    differ = next((name for name in names if got.get(name) != want.get(name)), None)
    if differ is None:
        return
    how = ("not written" if differ not in got else "not in the digests" if differ not in want
           else "other bytes")
    raise AssertionError(f"{differ} differs from {GOLDEN.relative_to(ROOT)} ({how}) under "
                         f"{numeric_stack()}; if the change moves output bits by design, regenerate "
                         f"them with `PYTHONPATH=src python tests/test_golden.py` and record that "
                         f"in CHANGES.md")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_digests(Path(tmp) / "run")
    GOLDEN.write_text("".join(f"{digest}  {name}\n" for name, digest in digests.items()),
                      encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
