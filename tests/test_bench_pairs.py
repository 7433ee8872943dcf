"""``tools/bench_pairs.py``: quartiles, wins, the gain rule, the seed of each pair, the
trees and environment each run gets, and what SIGTERM leaves behind."""

import importlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def pairs():
    sys.path.insert(0, str(TOOLS))
    try:
        yield importlib.import_module("bench_pairs")
    finally:
        sys.path.remove(str(TOOLS))


def test_quartiles_interpolate_between_order_statistics(pairs):
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_needs_nine_tenths_of_the_wins_and_a_gap_past_the_parent_iqr(pairs):
    parent = [float(v) for v in range(10, 20)]  # quartiles 12.25 / 14.5 / 16.75
    faster = [v - 5.0 for v in parent]  # median gap 5 > IQR 4.5, 10/10 wins
    v = pairs.judge(parent, faster, "lower", 0.25)
    assert v["wins"] == 10 and v["gain"] and not v["worse"]
    assert v["rel"] == pytest.approx(-5.0 / 14.5)
    # nine wins are enough; a tie counts for neither side
    assert pairs.judge(parent, faster[:9] + [19.0], "lower", 0.25)["wins"] == 9
    assert pairs.judge(parent, faster[:9] + [19.0], "lower", 0.25)["gain"]
    # eight wins are not
    eight = faster[:8] + [30.0, 30.0]
    assert pairs.judge(parent, eight, "lower", 0.25)["wins"] == 8
    assert not pairs.judge(parent, eight, "lower", 0.25)["gain"]
    # every pair won, but the medians lie inside the parent's own spread
    assert not pairs.judge(parent, [v - 4.0 for v in parent], "lower", 0.25)["gain"]


def test_higher_is_better_and_the_worse_bound(pairs):
    parent = [1.0] * 10
    v = pairs.judge(parent, [1.5] * 10, "higher", 0.05)
    assert v["wins"] == 10 and v["gain"] and not v["worse"]
    v = pairs.judge(parent, [0.9] * 10, "higher", 0.05)
    assert v["wins"] == 0 and not v["gain"] and v["worse"]
    # 4% worse is inside a 5% bound
    assert not pairs.judge(parent, [1.04] * 10, "lower", 0.05)["worse"]
    assert pairs.judge(parent, [1.06] * 10, "lower", 0.05)["worse"]


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved(pairs):
    parent = [float(v) for v in range(10, 20)]  # IQR 4.5 > 0.25 * median 14.5
    v = pairs.judge(parent, list(parent), "lower", 0.25)
    assert v["unresolved"] and not v["gain"] and not v["worse"]
    # inside a wider bound the same runs read unchanged
    assert not pairs.judge(parent, list(parent), "lower", 0.5)["unresolved"]
    # unless every change run beats every parent run, in either direction
    assert not pairs.judge(parent, [v - 10.5 for v in parent], "lower", 0.25)["unresolved"]
    assert pairs.judge(parent, [v - 8.5 for v in parent], "lower", 0.25)["unresolved"]
    assert not pairs.judge(parent, [v + 10.5 for v in parent], "higher", 0.25)["unresolved"]


def test_pair_i_runs_seed_first_seed_plus_i_in_both_trees(pairs, monkeypatch, capsys):
    declared = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = {m["name"]: {"value": 1.0} for m in declared}
    runs = []

    def bench(tree, workload, seed, seconds):
        runs.append((tree.name == "change", workload, seed, seconds))
        return {"failed": 0, "attempted": 4, "metrics": metrics}

    monkeypatch.setattr(pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(pairs, "copy_tree", lambda dest: None)
    monkeypatch.setattr(pairs, "bench", bench)
    assert pairs.main(["HEAD", "--workload", "many-tasks", "--pairs", "3", "--seconds", "0",
                       "--first-seed", "7"]) == 0
    # even pairs run the parent first, odd pairs this tree
    assert runs == [(False, "many-tasks", 7, 0.0), (True, "many-tasks", 7, 0.0),
                    (True, "many-tasks", 8, 0.0), (False, "many-tasks", 8, 0.0),
                    (False, "many-tasks", 9, 0.0), (True, "many-tasks", 9, 0.0)]
    assert "seeds 7..9" in capsys.readouterr().out
    runs.clear()
    assert pairs.main(["HEAD", "--workload", "many-tasks", "--pairs", "2", "--seconds", "0"]) == 0
    assert [seed for _, _, seed, _ in runs] == [0, 0, 1, 1]


def test_negative_first_seed_is_a_usage_error(pairs, monkeypatch):
    monkeypatch.setattr(pairs, "export", lambda rev, dest: pytest.fail("exported"))
    with pytest.raises(SystemExit) as info:
        pairs.main(["HEAD", "--workload", "many-tasks", "--pairs", "1", "--seconds", "0",
                    "--first-seed", "-1"])
    assert info.value.code == 2


def test_bench_runs_in_the_tree_and_writes_no_bytecode(pairs, monkeypatch, tmp_path):
    seen = {}

    def run(cmd, cwd, env, **kwargs):
        seen.update(cmd=cmd, cwd=cwd, env=env)
        return subprocess.CompletedProcess(cmd, 0, stdout='log\n{"failed": 0}\n', stderr="")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    monkeypatch.setattr(pairs, "run_in_session", run)
    assert pairs.bench(tmp_path, "paper-default", 3, 1.5) == {"failed": 0}
    assert seen["cwd"] == tmp_path and seen["cmd"][1] == str(tmp_path / "perfbench" / "run.py")
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert seen["env"]["PATH"] == os.environ["PATH"]


def test_the_change_tree_copies_what_git_would_commit_and_no_bytecode_cache(
        pairs, monkeypatch, tmp_path):
    tree, dest = tmp_path / "tree", tmp_path / "copy"
    for name, text in {".gitignore": "__pycache__/\n", "src/a.py": "a = 1\n",
                       "src/gone.py": "", "src/__pycache__/a.cpython-311.pyc": "stale"}.items():
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        (tree / name).write_text(text)
    subprocess.run(["git", "init", "-q", str(tree)], check=True)
    subprocess.run(["git", "-C", str(tree), "add", "."], check=True)
    (tree / "src" / "gone.py").unlink()  # tracked, deleted in the tree
    (tree / "src" / "a.py").write_text("a = 2\n")  # an uncommitted edit
    (tree / "src" / "new.py").write_text("")  # untracked, not ignored
    monkeypatch.setattr(pairs, "ROOT", tree)
    pairs.copy_tree(dest)
    assert sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file()) == [
        ".gitignore", "src/a.py", "src/new.py"]
    assert (dest / "src" / "a.py").read_text() == "a = 2\n"
    # this repository ignores its bytecode caches too
    assert "__pycache__/" in (TOOLS.parent / ".gitignore").read_text().splitlines()


def _processes() -> list[tuple[int, int, int]]:
    """(pid, parent pid, session id) of every live process /proc lists; a zombie
    has exited and is left out."""
    procs = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid, _, session = stat.read_text().rpartition(")")[2].split()[:4]
        except OSError:  # exited while listed
            continue
        if state != "Z":
            procs.append((int(stat.parent.name), int(ppid), int(session)))
    return procs


def _wait_for(predicate, timeout=60.0):
    """predicate()'s first truthy value, polled until timeout seconds pass."""
    deadline = time.monotonic() + timeout
    while not (value := predicate()):
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.05)
    return value


def _children(pid: int) -> list[int]:
    return [p for p, ppid, _ in _processes() if ppid == pid]


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="lists processes through /proc")
@pytest.mark.skipif(subprocess.run(["git", "-C", str(TOOLS.parent), "rev-parse", "HEAD"],
                                   capture_output=True).returncode != 0,
                    reason="exports HEAD of a git checkout")
def test_sigterm_kills_the_running_session_and_removes_the_copies(tmp_path):
    """SIGTERM while pair 0's first run and its worker run: the tool exits 143, its
    temporary directory is gone and no process of the run's session is left."""
    tool = subprocess.Popen(
        [sys.executable, str(TOOLS / "bench_pairs.py"), "HEAD", "--workload", "paper-default",
         "--pairs", "1", "--seconds", "60"],
        cwd=TOOLS.parent, env=dict(os.environ, TMPDIR=str(tmp_path)),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        assert tool.stderr.readline() == "pair 0 parent\n"
        [run] = _wait_for(lambda: _children(tool.pid))
        _wait_for(lambda: _children(run))  # the run's worker has started
        assert [s for p, _, s in _processes() if p == run] == [run]  # a session of its own
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        tool.kill()
        tool.wait()
        tool.stderr.close()
    assert list(tmp_path.iterdir()) == []
    _wait_for(lambda: all(s != run for _, _, s in _processes()), timeout=10)
