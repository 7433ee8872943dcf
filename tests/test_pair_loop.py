"""``tools/pair_loop.py``: one short run on paper-default prints a row per ORTHO mode."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pair_loop.py"


def test_pair_loop_prints_calls_tasks_fires_and_time_per_ortho_mode():
    done = subprocess.run([sys.executable, str(TOOL), "--workload", "paper-default",
                           "--repeats", "1"], capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["mode", "calls", "T", "fired/call", "us/call"]
    # 930 steps of 3 tasks: one group per step for FLAT, two (L0.A, L0.B) for PER_MATRIX
    assert [row.split()[:3] for row in rows] == [["ORTHO_FLAT", "930", "3"],
                                                 ["ORTHO_STRUCTURED", "1860", "3"]]
    for row in rows:
        fired, micros = map(float, row.split()[3:])
        assert 0.0 < fired <= 6.0 and micros > 0.0  # at most T (T - 1) pairs fire
