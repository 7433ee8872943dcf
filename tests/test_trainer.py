import numpy as np
import pytest

from helpers import measure_surgery_floats, own_copy, predict, random_batch, random_model

from ortho_lora.config import JOINT, ORTHO_FLAT, ORTHO_STRUCTURED, SINGLE_TASK, config_from_dict
from ortho_lora.dense import Rng
from ortho_lora.errors import ParameterError
from ortho_lora.model import (
    CLASSIFICATION,
    PER_MATRIX,
    REGRESSION,
    TaskBatch,
    stack_copies,
)
from ortho_lora.optim import AdamWState, adamw_step
from ortho_lora.surgery import merge
from ortho_lora.tasks import make_conflict_set
from ortho_lora.trainer import build_task_set, epoch_batches, run_experiment, run_mode, train_step


def tiny_config(**overrides):
    raw = {
        "version": 1,
        "seed": 0,
        "modes": [JOINT],
        "model": {"layer_dims": [6, 6], "rank": 2, "alpha": 4.0, "sigma_init": 0.02},
        "optimizer": {"lr_base": 0.01},
        "schedule": {"epochs": 1, "batch_size": 8},
        "tasks": {"kind": "regression", "num_tasks": 2, "in_dim": 6, "out_dim": 3,
                  "conflict_level": 0.0, "noise_sigma": 0.0, "n_train": 32, "n_eval": 8},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw.setdefault(key, {}).update(value)
        else:
            raw[key] = value
    return config_from_dict(raw)


def snapshot(model):
    return {name: model.params[sl].reshape(shape).copy()
            for name, (sl, shape) in model.layout.blocks.items()}


def max_rel_diff(s1, s2):
    out = 0.0
    for key in s1:
        denom = max(np.abs(s1[key]).max(), np.abs(s2[key]).max(), 1e-12)
        out = max(out, np.abs(s1[key] - s2[key]).max() / denom)
    return out


def _one_step(mode, model_or_models, batches, scope=PER_MATRIX, seed=0):
    models = model_or_models if isinstance(model_or_models, list) else [model_or_models]
    states = [AdamWState() for _ in models]
    records, report = train_step(mode, models, batches, states, step=0, lr=0.01,
                                 surgery_rng=Rng(seed), scope=scope)
    return records, report, models


class TestTrainStep:
    def test_no_conflict_ortho_matches_joint(self):
        cfg = tiny_config()
        ts = build_task_set(cfg)
        base = random_model(1, layer_dims=(6, 6), kinds=ts.kinds, randomize_b=True)
        batches = [ts.train[t] for t in range(2)]

        results = {}
        for mode in (JOINT, ORTHO_FLAT, ORTHO_STRUCTURED):
            model = own_copy(base)
            _, report, _ = _one_step(mode, model, batches)
            if mode != JOINT:
                assert report is not None and not any(p.conflicted for p in report.pairs)
            results[mode] = snapshot(model)
        assert max_rel_diff(results[JOINT], results[ORTHO_FLAT]) < 1e-10
        assert max_rel_diff(results[JOINT], results[ORTHO_STRUCTURED]) < 1e-10

    def test_single_task_all_modes_agree(self):
        model = random_model(2, kinds=[REGRESSION], randomize_b=True)
        batch = random_batch(model, 0, 8, seed=3)
        results = {}
        for mode in (JOINT, ORTHO_FLAT, ORTHO_STRUCTURED, SINGLE_TASK):
            # SINGLE_TASK's one model is the one row of its stack
            m = stack_copies(model)[0] if mode == SINGLE_TASK else own_copy(model)
            _one_step(mode, m, [batch])
            results[mode] = snapshot(m)
        for mode in (ORTHO_FLAT, ORTHO_STRUCTURED, SINGLE_TASK):
            assert max_rel_diff(results[JOINT], results[mode]) == 0.0

    def test_antipodal_adapter_gradients_cancel_heads_still_move(self):
        # targets 0 and 2*output give residuals +out and -out, exact negations
        # in IEEE arithmetic, so the two tasks' adapter gradients are bitwise
        # antiparallel and the projections cancel them completely
        model = random_model(4, kinds=[REGRESSION] * 2, randomize_b=True)
        model.heads[1][...] = model.heads[0]
        x = Rng(5).standard_normal((model.in_dim, 8))
        out = predict(model, 0, x)
        batches = [TaskBatch(0, x, np.zeros_like(out)), TaskBatch(1, x, 2.0 * out)]

        before = snapshot(model)
        _, report, _ = _one_step(ORTHO_STRUCTURED, model, batches)
        assert report is not None and any(p.conflicted for p in report.pairs)
        after = snapshot(model)
        for name in model.layout.blocks:
            if name.startswith("HEAD"):
                assert not np.array_equal(after[name], before[name]), f"{name} did not move"
            else:
                assert np.array_equal(after[name], before[name]), f"{name} moved"

    def test_wrong_model_arity(self):
        model = random_model(7)
        batches = [random_batch(model, t, 4, seed=t) for t in range(2)]
        with pytest.raises(ParameterError):
            _one_step(SINGLE_TASK, model, batches)  # needs 2 models

    def test_backbone_frozen_across_steps(self):
        cfg = tiny_config(modes=[ORTHO_STRUCTURED],
                          tasks={"conflict_level": 1.0}, schedule={"epochs": 2})
        log, models = run_mode(cfg, ORTHO_STRUCTURED)
        fresh = run_mode(tiny_config(modes=[ORTHO_STRUCTURED], tasks={"conflict_level": 1.0},
                                     schedule={"epochs": 0}), ORTHO_STRUCTURED)[1]
        for trained, init in zip(models, fresh):
            for lt, li in zip(trained.layers, init.layers):
                assert np.array_equal(lt.w0, li.w0)


@pytest.mark.parametrize("mode", [SINGLE_TASK, JOINT, ORTHO_FLAT, ORTHO_STRUCTURED])
def test_gradient_rows_hold_adapters_and_own_head_in_every_mode(mode, monkeypatch):
    # rows of A + o*d columns: SINGLE_TASK's stack gradient, the others' merge input
    model = random_model(12, kinds=[REGRESSION, CLASSIFICATION, REGRESSION], randomize_b=True)
    width = model.layout.heads.start + model.heads[0].size
    batches = [random_batch(model, t, 4, seed=90 + t) for t in range(3)]
    shapes = []

    def merge_rows(grads):
        shapes.append(("merge", grads.rows.shape))
        return merge(grads)

    def adamw(params, grad, state, lr):
        shapes.append(("adamw", grad.shape, state.m is None))
        adamw_step(params, grad, state, lr)
        shapes.append(("moments", state.m.shape, state.v.shape))

    monkeypatch.setattr("ortho_lora.trainer.merge", merge_rows)
    monkeypatch.setattr("ortho_lora.trainer.adamw_step", adamw)
    models = stack_copies(model) if mode == SINGLE_TASK else [own_copy(model)]
    train_step(mode, models, batches, [AdamWState()], step=0, lr=0.01, surgery_rng=Rng(0),
               scope=PER_MATRIX)
    if mode == SINGLE_TASK:
        assert shapes == [("adamw", (3, width), True), ("moments", (3, width), (3, width))]
    else:
        size = model.params.size
        assert shapes == [("merge", (3, width)), ("adamw", (size,), True),
                          ("moments", (size,), (size,))]


class TestBackwardCounting:
    @pytest.mark.parametrize("mode,expected", [(JOINT, 1), (ORTHO_FLAT, 1),
                                               (ORTHO_STRUCTURED, 1), (SINGLE_TASK, 2)])
    def test_instrumented_counts_match(self, mode, expected):
        model = random_model(8, kinds=[REGRESSION] * 2, randomize_b=True)
        batches = [random_batch(model, t, 4, seed=10 + t) for t in range(2)]
        models = stack_copies(model) if mode == SINGLE_TASK else [own_copy(model)]
        states = [AdamWState()]
        train_step(mode, models, batches, states, step=0, lr=0.01,
                   surgery_rng=Rng(0), scope=PER_MATRIX, record_conflicts=False)
        assert sum(m.backward_passes for m in models) == expected
        # one fused backward per step; SINGLE_TASK's 2 models take one sweep each
        assert expected == (2 if mode == SINGLE_TASK else 1)


class TestSurgeryOverhead:
    def test_floats_touched_equals_task_times_adapter_counts(self):
        kinds = [REGRESSION] * 3
        narrow = random_model(9, layer_dims=(8, 6), rank=2, kinds=kinds, randomize_b=True)
        wide = random_model(9, layer_dims=(16, 12), rank=2, kinds=kinds, randomize_b=True)
        for model in (narrow, wide):
            batches = [random_batch(model, t, 4, seed=t) for t in range(3)]
            touched = measure_surgery_floats(model, batches, PER_MATRIX)
            assert touched == 3 * model.layout.heads.start  # the adapter columns
        # doubling the backbone at fixed rank scales the touch count by the
        # adapter growth (2x), never by the backbone float growth (4x)
        assert wide.layout.heads.start == 2 * narrow.layout.heads.start


class TestRunExperiment:
    def test_zero_epochs_only_initial_eval(self):
        cfg = tiny_config(schedule={"epochs": 0})
        result = run_experiment(cfg)
        log = result.logs[JOINT]
        assert log.steps == []
        assert {r.epoch for r in log.evals} == {0}
        assert len(log.evals) == 3  # two tasks + avg

    def test_same_seed_bit_identical_logs(self):
        cfg = tiny_config(modes=[JOINT, ORTHO_STRUCTURED], tasks={"conflict_level": 0.7})
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        for mode in cfg.modes:
            assert r1.logs[mode] == r2.logs[mode]

    def test_eval_rows_have_avg_and_increasing_epochs(self):
        cfg = tiny_config(schedule={"epochs": 2})
        log = run_experiment(cfg).logs[JOINT]
        epochs = sorted({r.epoch for r in log.evals})
        assert epochs == [0, 1, 2]
        for epoch in epochs:
            tasks = [r.task for r in log.evals if r.epoch == epoch]
            assert tasks == ["0", "1", "avg"]

    def test_step_lr_follows_linear_decay(self):
        cfg = tiny_config(schedule={"epochs": 2})
        log = run_experiment(cfg).logs[JOINT]
        total = cfg.total_steps()
        for rec in log.steps:
            assert rec.lr == pytest.approx(cfg.optimizer.lr_base * (1 - rec.step / total), rel=1e-15)

    def test_conflict_reports_only_when_recording(self):
        quiet = tiny_config(surgery={"record_conflicts": False})
        assert run_experiment(quiet).logs[JOINT].conflicts == []
        loud = tiny_config(surgery={"record_conflicts": True})
        assert len(run_experiment(loud).logs[JOINT].conflicts) == loud.total_steps()

    def test_single_task_models_start_identical(self):
        cfg = tiny_config(modes=[SINGLE_TASK], schedule={"epochs": 0})
        _, models = run_mode(cfg, SINGLE_TASK)
        assert len(models) == 2
        for l0, l1 in zip(models[0].layers, models[1].layers):
            assert np.array_equal(l0.w0, l1.w0)
            assert np.array_equal(l0.adapter.a, l1.adapter.a)


def _per_task_batches(ts, data_rng, batch_size, steps):
    """The reference data order: one permutation and one cursor per task, a
    reshuffle per task when its cursor runs out, and one take per task."""
    size = ts.train[0].x.shape[1]
    orders = [data_rng.permutation(size).tolist() for _ in range(ts.num_tasks)]
    cursors = [0] * ts.num_tasks
    for _ in range(steps):
        batches = []
        for t, pool in enumerate(ts.train):
            if cursors[t] + batch_size > size:
                orders[t] = data_rng.permutation(size).tolist()
                cursors[t] = 0
            cols = orders[t][cursors[t]:cursors[t] + batch_size]
            cursors[t] += batch_size
            batches.append((pool.x.take(cols, axis=1), pool.y.take(cols, axis=-1)))
        yield batches


@pytest.mark.parametrize("size,batch_size,steps", [(40, 16, 7), (48, 16, 3), (20, 20, 4)],
                         ids=["reshuffle mid-epoch", "one pass", "reshuffle every step"])
def test_epoch_batches_equal_per_task_reference(size, batch_size, steps):
    kinds = [REGRESSION, CLASSIFICATION, CLASSIFICATION, REGRESSION, REGRESSION]
    ts = make_conflict_set(kinds, 4, 3, 0.5, 0.1, size, 4, Rng(3))
    got_rng, want_rng = Rng(9).child(2), Rng(9).child(2)
    for epoch in range(3):
        got = list(epoch_batches(ts.train_pool, got_rng, batch_size, steps))
        want = list(_per_task_batches(ts, want_rng, batch_size, steps))
        assert len(got) == len(want) == steps
        for step_got, step_want in zip(got, want):
            assert [b.task_id for b in step_got] == list(range(len(kinds)))
            for batch, (x, y) in zip(step_got, step_want):
                assert np.array_equal(batch.x, x) and np.array_equal(batch.y, y)
        # both consumed the data stream alike: their next draws agree
        assert np.array_equal(got_rng.permutation(size), want_rng.permutation(size))
