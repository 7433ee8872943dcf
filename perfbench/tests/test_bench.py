"""Tests of the benchmark itself: gate, tracing, metric names and entry point.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
from spans import Target, Tracer
from workloads import WORKLOADS, build_config

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def tiny_config(workload: str, seed: int = 3) -> dict:
    raw = build_config(ROOT, workload, seed)
    raw["schedule"]["epochs"] = 1
    raw["tasks"]["n_eval"] = 64
    return raw


def test_declared_workloads_exist_in_the_harness():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_passes_gate_and_prints_declared_metrics(workload, tmp_path):
    raw = tiny_config(workload)
    plain = bench.measure(SRC, tmp_path, raw, seconds=0, trace=False, workers=2)
    assert (plain.attempted, plain.failed) == (8, 0), plain.failures
    assert set(plain.metrics) == END_TO_END
    assert all(value > 0 for value, _ in plain.metrics.values())
    times = {name for name, (_, unit) in plain.metrics.items() if unit in ("s", "us")}
    assert set(plain.raw) == times | {"setup_kernel_s", "kernel_s"}

    traced = bench.measure(SRC, tmp_path, raw, seconds=0, trace=True)
    assert (traced.attempted, traced.failed) == (8, 0), traced.failures
    assert traced.absent == []
    assert set(traced.metrics) == PER_LAYER
    self_total = sum(v for name, (v, _) in traced.metrics.items() if name.startswith("self_s."))
    assert self_total == pytest.approx(traced.metrics["trace.run_s"][0], rel=1e-9)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_reference_seed_matches_stored_final_metrics(workload, tmp_path):
    reference = bench.load_reference(workload, 0)
    assert set(reference) == set(build_config(ROOT, workload, 0)["modes"])
    cfg = bench.config.config_from_dict(build_config(ROOT, workload, 0))
    task_set = bench.trainer.build_task_set(cfg)
    repeat = bench.run_repeat(cfg, task_set, tmp_path, reference)
    assert repeat.failures == []


def test_gate_fails_every_mode_off_its_reference(tmp_path):
    cfg = bench.config.config_from_dict(tiny_config("paper-default"))
    task_set = bench.trainer.build_task_set(cfg)
    assert bench.repeat_in(tmp_path, 0, cfg, task_set, None).failures == []
    log = {mode: bench.trainer.run_mode(cfg, mode, task_set)[0] for mode in cfg.modes}
    finals = bench.reporting.build_summary(log).metrics
    off = {mode: finals[mode]["avg"] * (1 + 1e-6) for mode in cfg.modes}
    assert len(bench.repeat_in(tmp_path, 1, cfg, task_set, off).failures) == len(cfg.modes)
    assert bench.load_reference("paper-default", 1) is None


def test_traced_and_untraced_runs_write_identical_files(tmp_path):
    cfg = bench.config.config_from_dict(tiny_config("many-tasks"))
    task_set = bench.trainer.build_task_set(cfg)
    trainer_mod = importlib.import_module("ortho_lora.trainer")
    originals = {name: getattr(trainer_mod, name) for name in ("run_mode", "train_step", "surgery")}

    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    bench.run_repeat(cfg, task_set, tmp_path / "plain", None)
    tracer = Tracer()
    with tracer.patched(bench.TARGETS):
        assert trainer_mod.run_mode is not originals["run_mode"]
        bench.run_repeat(cfg, task_set, tmp_path / "traced", None, tracer, "0")

    assert {name: getattr(trainer_mod, name) for name in originals} == originals
    plain = sorted(p.relative_to(tmp_path / "plain") for p in (tmp_path / "plain").rglob("*"))
    traced = sorted(p.relative_to(tmp_path / "traced") for p in (tmp_path / "traced").rglob("*"))
    assert plain == traced
    for rel in plain:
        if (tmp_path / "plain" / rel).is_file():
            assert (tmp_path / "plain" / rel).read_bytes() == (tmp_path / "traced" / rel).read_bytes()


def test_missing_target_is_reported_absent(tmp_path, monkeypatch):
    model_mod = importlib.import_module("ortho_lora.model")
    original = model_mod.eval_metric
    tracer = Tracer()
    targets = [Target("model", "fused_gradient"), Target("gone", "anything"),
               Target("model", "eval_metric")]
    with tracer.patched(targets) as absent:
        assert absent == ["model.fused_gradient", "gone.anything"]
        assert model_mod.eval_metric is not original
    assert model_mod.eval_metric is original

    monkeypatch.setattr(bench, "TARGETS", [t for t in bench.TARGETS if t.name != "joint_gradient"]
                        + [Target("model", "fused_gradient")])
    result = bench.measure(SRC, tmp_path, tiny_config("paper-default"), seconds=0, trace=True)
    assert result.failed == 0
    assert result.absent == ["model.fused_gradient"]
    assert "model.eval_metric.calls" in result.metrics
    assert not any(name.startswith("model.fused_gradient") for name in result.metrics)


def test_broken_hook_drops_only_its_metrics(tmp_path, monkeypatch):
    def broken(tracer, args, kwargs, result):
        raise AttributeError("renamed field")

    targets = [Target(t.layer, t.name, broken) if t.name == "surgery" else t for t in bench.TARGETS]
    monkeypatch.setattr(bench, "TARGETS", targets)
    result = bench.measure(SRC, tmp_path, tiny_config("paper-default"), seconds=0, trace=True)
    assert result.failed == 0
    assert result.absent == []
    assert result.broken_hooks == ["surgery.surgery"]
    assert "surgery.groups_projected" not in result.metrics
    assert "surgery.surgery.calls" in result.metrics
    assert "surgery.pairs_checked" in result.metrics


def run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_cli_prints_one_result_line():
    proc = run_cli(ROOT, "--workload", "many-tasks", "--seed", "5", "--seconds", "0",
                   "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert sum(line.startswith("raw {") for line in lines) == 1
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(tmp_path, "--workload", "paper-default", "--seed", "0", "--seconds", "1",
                   "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
