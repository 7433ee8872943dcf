"""The names the benchmark's traced split wraps still resolve.

``perfbench/bench.py`` wraps the ``ortho_lora`` functions listed in its
``TARGETS`` by module attribute and reads their results in hooks. A rename
or a changed return type would silently drop a per-layer metric, so the
fast suite checks the names and runs every hook on a small traced run.
"""

import importlib
import sys
from pathlib import Path

import pytest

from ortho_lora.adapter import LoraAdapter
from ortho_lora.config import (
    ORTHO_FLAT,
    ORTHO_STRUCTURED,
    SINGLE_TASK,
    VALID_MODES,
    config_from_dict,
)
from ortho_lora.model import scope_labels
from ortho_lora.trainer import conflict_scope

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def tiny_config(**schedule):
    return config_from_dict({
        "version": 1, "seed": 0, "modes": [ORTHO_STRUCTURED],
        "model": {"layer_dims": [6, 6], "rank": 2, "alpha": 4.0, "sigma_init": 0.02},
        "schedule": {"epochs": 1, "batch_size": 8, **schedule},
        "tasks": {"kind": "regression", "num_tasks": 3, "in_dim": 6, "out_dim": 3,
                  "conflict_level": 0.9, "n_train": 32, "n_eval": 8},
    })


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("bench")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_target_resolves_to_a_callable(bench):
    for target in bench.TARGETS:
        module = importlib.import_module(f"ortho_lora.{target.layer}")
        assert callable(getattr(module, target.name, None)), target.span_name
    assert callable(importlib.import_module("ortho_lora.trainer").surgery)


@pytest.mark.parametrize("mode", VALID_MODES)
def test_every_hook_reads_a_real_run(bench, tmp_path, mode):
    # the benchmark counts backward passes over the models run_mode returns,
    # and dumps every returned model's 2-D adapters, task-prefixed in SINGLE_TASK
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    cfg = tiny_config()
    with tracer.patched(bench.TARGETS) as absent:
        log, models = bench.trainer.run_mode(cfg, mode)
        bench.reporting.write_metrics(log, tmp_path)
    assert absent == []
    assert tracer.broken_hooks == set()
    counts = {name for (_, name) in tracer.counts}
    assert {"model.backward_passes", "reporting.rows_written"} <= counts
    if mode in (ORTHO_FLAT, ORTHO_STRUCTURED):
        assert {"surgery.pairs_checked", "surgery.groups_projected"} <= counts
    runs = cfg.tasks.num_tasks if mode == SINGLE_TASK else 1
    assert len(models) == runs
    assert sum(m.backward_passes for m in models) / cfg.total_steps() == runs
    for model in models:
        for layer in model.layers:
            assert isinstance(layer.adapter, LoraAdapter)
            assert layer.adapter.a.ndim == layer.adapter.b.ndim == 2


def test_one_gather_per_order_block_and_one_joint_gradient_per_step(bench):
    # tasks.subset_batch counts drawn data-order blocks: 32 examples in
    # batches of 8 serve 4 of an epoch's 7 steps, so each epoch draws two;
    # model.joint_gradient keeps one call per optimizer step
    spans = importlib.import_module("spans")
    cfg = tiny_config(epochs=2, steps_per_epoch=7)
    tracer = spans.Tracer()
    with tracer.patched(bench.TARGETS):
        bench.trainer.run_mode(cfg, ORTHO_STRUCTURED)
    calls = {name: count for name, (count, _, _) in spans.span_totals(tracer.spans, {""}).items()}
    assert cfg.total_steps() == 14
    assert calls["tasks.subset_batch"] == 4
    assert calls["trainer.train_step"] == calls["model.joint_gradient"] == 14


@pytest.mark.parametrize("mode", VALID_MODES)
def test_one_conflict_report_per_run_in_a_conflict_scope(bench, mode):
    # a run builds its one report from every step's Gram matrices after its
    # last step; its rows are every step's 3 task pairs in every scope group
    spans = importlib.import_module("spans")
    cfg = tiny_config(epochs=2, steps_per_epoch=7)
    tracer = spans.Tracer()
    with tracer.patched(bench.TARGETS):
        bench.trainer.run_mode(cfg, mode)
    calls = {name: count for name, (count, _, _) in spans.span_totals(tracer.spans, {""}).items()}
    scope = conflict_scope(cfg, mode)
    groups = len(scope_labels(scope, 1)) if scope else 0
    assert calls.get("surgery.build_conflict_report", 0) == (1 if scope else 0)
    assert tracer.broken_hooks == set()
    assert tracer.counts.get(("", "surgery.pairs_checked"), 0) == cfg.total_steps() * 3 * groups


@pytest.mark.parametrize("mode", VALID_MODES)
@pytest.mark.parametrize("epochs", [0, 2])
def test_a_run_draws_its_schedule_once_and_steps_once_per_step(bench, mode, epochs):
    # the lr column is one linear_decay_lr call per run, every step is one
    # train_step call (backward_passes_per_step divides by them), the report
    # at most one call, and the log still lists the S * T loss rows and the
    # (E + 1)(T + 1) eval rows that _count_written counts, and its report's
    # pairs number the steps 0..S-1 for _count_pairs
    spans = importlib.import_module("spans")
    cfg = tiny_config(epochs=epochs, steps_per_epoch=7)
    tracer = spans.Tracer()
    with tracer.patched(bench.TARGETS):
        log, _ = bench.trainer.run_mode(cfg, mode)
    calls = {name: count for name, (count, _, _) in spans.span_totals(tracer.spans, {""}).items()}
    steps = cfg.total_steps()
    assert steps == 7 * epochs
    assert calls["optim.linear_decay_lr"] == 1
    assert calls.get("trainer.train_step", 0) == steps
    assert calls.get("surgery.build_conflict_report", 0) <= 1
    assert len(log.steps) == steps * cfg.tasks.num_tasks == log.losses.size
    assert len(log.evals) == (epochs + 1) * (cfg.tasks.num_tasks + 1)
    for report in log.conflicts:
        pairs = len(report.pair_ids()) * len(report.labels)
        assert [p.step for p in report.pairs] == [s for s in range(steps) for _ in range(pairs)]
