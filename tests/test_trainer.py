from statistics import fmean
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    TaskView,
    conflict_set,
    generator,
    measure_surgery_floats,
    predict,
    random_batch,
    random_model,
    reference_metric,
    reference_run,
    shuffle,
    step_batch,
    step_grams,
    task_views,
    train_views,
)

from ortho_lora.config import (
    JOINT,
    ORTHO_FLAT,
    ORTHO_STRUCTURED,
    SINGLE_TASK,
    VALID_MODES,
    config_from_dict,
)
from ortho_lora.dense import Rng
from ortho_lora.errors import ParameterError, ShapeError
from ortho_lora.model import (
    CLASSIFICATION,
    FLAT,
    PER_MATRIX,
    PER_ROLE_CONCAT,
    REGRESSION,
    eval_metric,
    stack_runs,
)
from ortho_lora.optim import AdamWState, adamw_step
from ortho_lora.surgery import build_conflict_report, merge
from ortho_lora import tasks
from ortho_lora.trainer import (
    build_task_set,
    conflict_scope,
    epoch_batches,
    run_experiment,
    run_mode,
    train_step,
)


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


def _stack(mode, model):
    """mode's stack of model: one run per task in SINGLE_TASK, else one run."""
    return stack_runs(model, model.num_tasks if mode == SINGLE_TASK else 1)


def _one_step(mode, model, batches, scope=PER_MATRIX, seed=0):
    """One step of mode's stack of model in scope, in the order shuffle(seed);
    returns the report of the Gram matrices that an ORTHO step computes (None
    for JOINT's, which computes none) and the first run, moved."""
    stack = _stack(mode, model)
    grams = step_grams(stack, scope)
    train_step(mode, stack, step_batch(model, batches), AdamWState(), 0.01, scope,
               grams, shuffle(seed, len(stack.task_ids)))
    report = None if mode == JOINT else build_conflict_report(stack.models[0].layout, scope,
                                                               grams[None])
    return report, stack.models[0]


class TestTrainStep:
    def test_no_conflict_ortho_matches_joint(self):
        cfg = tiny_config()
        ts = build_task_set(cfg)
        base = random_model(1, layer_dims=(6, 6), kinds=ts.kinds, randomize_b=True)
        batches = train_views(ts)

        results = {}
        for mode in (JOINT, ORTHO_FLAT, ORTHO_STRUCTURED):
            report, model = _one_step(mode, base, batches)
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
            # every mode's stack of one task is one run
            results[mode] = snapshot(_one_step(mode, model, [batch])[1])
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
        batches = [TaskView(0, x, np.zeros_like(out)), TaskView(1, x, 2.0 * out)]

        before = snapshot(model)
        report, moved = _one_step(ORTHO_STRUCTURED, model, batches)
        assert report is not None and any(p.conflicted for p in report.pairs)
        after = snapshot(moved)
        for name in model.layout.blocks:
            if name.startswith("HEAD"):
                assert not np.array_equal(after[name], before[name]), f"{name} did not move"
            else:
                assert np.array_equal(after[name], before[name]), f"{name} moved"

    def test_wrong_model_arity(self):
        # a stack of a 2-task model holds one run of both tasks or one run per task
        model = random_model(7)
        for runs in (0, 3):
            with pytest.raises(ParameterError, match=f"1 or 2 runs, not {runs}"):
                stack_runs(model, runs)

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

    def merge_rows(grads, out):
        shapes.append(("merge", grads.rows.shape))
        return merge(grads, out)

    def adamw(params, grad, state, lr):
        shapes.append(("adamw", grad.shape, state.m is None))
        adamw_step(params, grad, state, lr)
        shapes.append(("moments", state.m.shape, state.v.shape))

    monkeypatch.setattr("ortho_lora.trainer.merge", merge_rows)
    monkeypatch.setattr("ortho_lora.trainer.adamw_step", adamw)
    stack, scope = _stack(mode, model), None if mode == SINGLE_TASK else PER_MATRIX
    train_step(mode, stack, step_batch(model, batches), AdamWState(), 0.01, scope,
               step_grams(stack, scope), shuffle(0, 3))
    # the (R, P) update and moments: 3 one-head runs, or one run of every head
    shape = (3, width) if mode == SINGLE_TASK else (1, model.params.size)
    assert shapes == [("merge", (3, width)), ("adamw", shape, True), ("moments", shape, shape)]


class TestBackwardCounting:
    @pytest.mark.parametrize("mode,expected", [(JOINT, 1), (ORTHO_FLAT, 1),
                                               (ORTHO_STRUCTURED, 1), (SINGLE_TASK, 2)])
    def test_instrumented_counts_match(self, mode, expected):
        model = random_model(8, kinds=[REGRESSION] * 2, randomize_b=True)
        batches = [random_batch(model, t, 4, seed=10 + t) for t in range(2)]
        stack = _stack(mode, model)
        scope = None if mode == SINGLE_TASK else PER_MATRIX
        train_step(mode, stack, step_batch(model, batches), AdamWState(), 0.01, scope,
                   step_grams(stack, scope), shuffle(0, 2))
        assert sum(m.backward_passes for m in stack.models) == expected
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
        assert log.losses.shape == (0, 2) and log.lrs.shape == (0,) and log.steps == []
        assert log.metrics.shape == (1, 2)  # the eval before training
        assert list(log.final_metrics()) == ["0", "1", "avg"]

    def test_same_seed_bit_identical_logs(self):
        cfg = tiny_config(modes=[JOINT, ORTHO_STRUCTURED], tasks={"conflict_level": 0.7})
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        for mode in cfg.modes:
            assert r1.logs[mode] == r2.logs[mode]

    def test_eval_rows_have_avg_and_increasing_epochs(self):
        cfg = tiny_config(schedule={"epochs": 2})
        log = run_experiment(cfg).logs[JOINT]
        assert log.metrics.shape == (3, 2)
        final = log.metrics[-1].tolist()
        assert log.final_metrics() == {"0": final[0], "1": final[1], "avg": fmean(final)}

    def test_step_lr_follows_linear_decay(self):
        cfg = tiny_config(schedule={"epochs": 2})
        log = run_experiment(cfg).logs[JOINT]
        total = cfg.total_steps()
        assert log.lrs.tolist() == [cfg.optimizer.lr_base * (1 - s / total) for s in range(total)]
        assert [rec.lr for rec in log.steps] == np.repeat(log.lrs, 2).tolist()

    def test_conflict_reports_only_when_recording(self):
        quiet = tiny_config(surgery={"record_conflicts": False})
        assert run_experiment(quiet).logs[JOINT].conflicts == []
        loud = tiny_config(surgery={"record_conflicts": True})
        (report,) = run_experiment(loud).logs[JOINT].conflicts
        assert len(report.dot) == loud.total_steps()

    @pytest.mark.parametrize("mode,overrides,scope", [
        (SINGLE_TASK, {}, None),
        (JOINT, {}, PER_MATRIX),
        (JOINT, {"surgery": {"record_conflicts": False}}, None),
        (JOINT, {"tasks": {"num_tasks": 1}}, None),
        (ORTHO_FLAT, {"surgery": {"scope": PER_ROLE_CONCAT}}, FLAT),
        (ORTHO_FLAT, {"tasks": {"num_tasks": 1}}, None),
        (ORTHO_STRUCTURED, {"surgery": {"scope": PER_ROLE_CONCAT, "record_conflicts": False}},
         PER_ROLE_CONCAT),
        (ORTHO_STRUCTURED, {"tasks": {"num_tasks": 1}}, None),
    ])
    def test_run_keeps_a_report_every_step_exactly_in_its_conflict_scope(self, mode, overrides,
                                                                         scope):
        cfg = tiny_config(modes=[mode], **overrides)
        assert conflict_scope(cfg, mode) == scope
        log, _ = run_mode(cfg, mode)
        assert len(log.conflicts) == (1 if scope else 0)
        assert [len(r.dot) for r in log.conflicts] == ([cfg.total_steps()] if scope else [])
        assert {r.scope for r in log.conflicts} <= {scope}

    def test_single_task_models_start_identical(self):
        cfg = tiny_config(modes=[SINGLE_TASK], schedule={"epochs": 0})
        _, models = run_mode(cfg, SINGLE_TASK)
        assert len(models) == 2
        for l0, l1 in zip(models[0].layers, models[1].layers):
            assert np.array_equal(l0.w0, l1.w0)
            assert np.array_equal(l0.adapter.a, l1.adapter.a)


def _per_task_batches(ts, data_gen, batch_size, steps):
    """The reference data order: one permutation and one cursor per task, a
    reshuffle per task when its cursor runs out, and one take per task; data_gen
    is a numpy Generator on the run's data stream."""
    size = ts.train_pool.x.shape[1]
    orders = [data_gen.permutation(size).tolist() for _ in ts.kinds]
    cursors = [0] * len(ts.kinds)
    for _ in range(steps):
        batches = []
        for t, pool in enumerate(train_views(ts)):
            if cursors[t] + batch_size > size:
                orders[t] = data_gen.permutation(size).tolist()
                cursors[t] = 0
            cols = orders[t][cursors[t]:cursors[t] + batch_size]
            cursors[t] += batch_size
            batches.append((pool.x.take(cols, axis=1), pool.y.take(cols, axis=-1)))
        yield batches


@pytest.mark.parametrize("size,batch_size,steps", [(40, 16, 7), (48, 16, 3), (20, 20, 4)],
                         ids=["reshuffle mid-epoch", "one pass", "reshuffle every step"])
def test_epoch_batches_equal_per_task_reference(size, batch_size, steps):
    kinds = [REGRESSION, CLASSIFICATION, CLASSIFICATION, REGRESSION, REGRESSION]
    ts = conflict_set(kinds, 4, 3, 0.5, 0.1, size, 4, Rng(3))
    got_rng, want_rng = Rng(9).child(2), generator(9, 2)
    for epoch in range(3):
        got = list(epoch_batches(ts.train_pool, got_rng, batch_size, steps))
        want = list(_per_task_batches(ts, want_rng, batch_size, steps))
        assert len(got) == len(want) == steps
        for step_got, step_want in zip(got, want):
            assert np.array_equal(step_got.x, np.array([x for x, _ in step_want]))
            assert [(kind, ids) for kind, ids, _ in step_got.targets] == [
                (REGRESSION, [0, 3, 4]), (CLASSIFICATION, [1, 2])]
            for _, ids, y in step_got.targets:
                assert np.array_equal(y, np.array([step_want[t][1] for t in ids]))
        # both consumed the data stream alike: their next draws agree
        assert np.array_equal(got_rng.permutations(1, size)[0], want_rng.permutation(size))


def _root(arr):
    """The array that owns arr's memory."""
    while arr.base is not None:
        arr = arr.base
    return arr


@settings(max_examples=40, deadline=None)
@given(kinds=st.lists(st.sampled_from([REGRESSION, CLASSIFICATION]), min_size=1, max_size=16),
       size=st.integers(8, 40), data=st.data(), seed=st.integers(0, 2**16),
       gather_entries=st.sampled_from([1, 100, 1000, tasks.GATHER_ENTRIES]))
def test_epoch_batches_equal_per_task_reference_any_shape(kinds, size, data, seed, gather_entries):
    # any task count and kind mix; blocks used up, redrawn mid-epoch or left
    # partly used, and gathered in one run of steps or in several: each step
    # is the per-task takes, bit for bit, C-contiguous, and gathered into an
    # array of at most gather_entries inputs (or one step's), never more than
    # the pool
    batch_size = data.draw(st.integers(1, size), label="batch_size")
    steps = data.draw(st.integers(1, 3 * (size // batch_size) + 2), label="steps")
    ts = conflict_set(kinds, 3, 2, 0.5 if len(kinds) > 1 else 0.0, 0.1, size, 8, Rng(seed))
    pool = ts.train_pool
    got_rng, want_rng = Rng(seed).child(2), generator(seed, 2)
    with mock.patch.object(tasks, "GATHER_ENTRIES", gather_entries):
        got = list(epoch_batches(pool, got_rng, batch_size, steps))
    want = list(_per_task_batches(ts, want_rng, batch_size, steps))
    assert len(got) == len(want) == steps
    for step_got, step_want in zip(got, want):
        assert step_got.x.flags["C_CONTIGUOUS"]
        assert np.array_equal(step_got.x, np.array([x for x, _ in step_want]))
        assert _root(step_got.x).size <= min(max(gather_entries, step_got.x.size), pool.x.size)
        assert [(kind, ids) for kind, ids, _ in step_got.targets] == [
            (kind, ids) for kind, ids, _ in pool.targets]
        for (_, ids, y), (_, _, pool_y) in zip(step_got.targets, pool.targets):
            assert y.flags["C_CONTIGUOUS"] and _root(y).size <= pool_y.size
            assert np.array_equal(y, np.array([step_want[t][1] for t in ids]))
    assert np.array_equal(got_rng.permutations(1, size)[0], want_rng.permutation(size))


@pytest.mark.parametrize("batch_size", [0, 33])
def test_epoch_batches_rejects_a_batch_size_outside_the_pool(batch_size):
    ts = build_task_set(tiny_config())
    with pytest.raises(ParameterError, match=r"batch_size must be in \[1, 32\], got"):
        next(epoch_batches(ts.train_pool, Rng(0), batch_size, 3))


@pytest.mark.parametrize("mode", [SINGLE_TASK, JOINT])
def test_eval_pool_built_once_equals_fresh_forwards_every_epoch(mode, monkeypatch):
    # run_mode checks its eval pool and allocates its buffers once; as the
    # parameters move from epoch to epoch, every eval call still gives the
    # bits of fresh per-task forwards, so no stale buffer leaks into a metric
    cfg = tiny_config(schedule={"epochs": 3}, tasks={
        "kind": [REGRESSION, CLASSIFICATION, REGRESSION], "num_tasks": 3, "conflict_level": 0.5})
    ts = build_task_set(cfg)
    pools, params = [], []

    def checked(stack, pool):
        got = eval_metric(stack, pool)
        runs = stack.models * 3 if len(stack.models) == 1 else stack.models
        assert got == [reference_metric(m, b) for m, b in zip(runs, task_views(ts.eval))]
        pools.append(pool)
        params.append(stack.matrix.copy())
        return got

    monkeypatch.setattr("ortho_lora.trainer.eval_metric", checked)
    run_mode(cfg, mode, task_set=ts)
    assert len(pools) == 4 and all(pool is pools[0] for pool in pools)
    assert all(not np.array_equal(a, b) for a, b in zip(params, params[1:]))


def _spoil_pool(ts, spoil):
    """ts with one bad train pool entry: a label, a target shape or a task's kind."""
    pool = ts.train_pool
    (_, reg_ids, values), (_, cls_ids, labels) = pool.targets
    if spoil == "label":
        labels[0, 5] = 3
    elif spoil == "shape":
        pool.targets[0] = (REGRESSION, reg_ids, values[..., :2])
    else:
        ts.kinds[2] = CLASSIFICATION
    return ts


@pytest.mark.parametrize("mode", [SINGLE_TASK, JOINT])
@pytest.mark.parametrize("spoil,error,match", [
    ("label", ParameterError, r"labels outside \[0, 3\) for task 1"),
    ("shape", ShapeError, r"targets \(2, 2, 32\) of task 0 do not match \(2, 3, 32\)"),
    ("kind", ParameterError, "task 2 has regression targets, not classification"),
], ids=["label range", "target shape", "kind"])
def test_bad_train_pool_fails_before_the_first_step(mode, spoil, error, match, monkeypatch):
    cfg = tiny_config(tasks={"kind": [REGRESSION, CLASSIFICATION, REGRESSION], "num_tasks": 3,
                             "conflict_level": 0.5})
    ts = _spoil_pool(build_task_set(cfg), spoil)

    def no_step(*args):
        pytest.fail("a step gathered its batch from an unchecked pool")

    monkeypatch.setattr("ortho_lora.trainer.subset_batch", no_step)
    with pytest.raises(error, match=match):
        run_mode(cfg, mode, task_set=ts)


@pytest.mark.parametrize("mode", [SINGLE_TASK, JOINT])
@pytest.mark.parametrize("spoil,error,match", [
    ("label", ParameterError, r"labels outside \[0, 3\) for task 1"),
    ("shape", ShapeError, r"targets \(2, 2, 8\) of task 0 do not match \(2, 3, 8\)"),
], ids=["label range", "target shape"])
def test_bad_eval_set_fails_before_the_first_step(mode, spoil, error, match, monkeypatch):
    # the held-out set is stacked like the train pool, and checked as it is
    cfg = tiny_config(tasks={"kind": [REGRESSION, CLASSIFICATION, REGRESSION], "num_tasks": 3,
                             "conflict_level": 0.5})
    ts = build_task_set(cfg)
    (_, reg_ids, values), (_, _, labels) = ts.eval.targets
    if spoil == "label":
        labels[0, 5] = 3
    else:
        ts.eval.targets[0] = (REGRESSION, reg_ids, values[:, :2])

    def no_step(*args):
        pytest.fail("a run stepped before checking its eval set")

    monkeypatch.setattr("ortho_lora.trainer.subset_batch", no_step)
    with pytest.raises(error, match=match):
        run_mode(cfg, mode, task_set=ts)


@pytest.mark.parametrize("mode", VALID_MODES)
@pytest.mark.parametrize("layer_dims", [[6, 6], [6, 5, 4]], ids=["1L", "2L"])
@pytest.mark.parametrize("num_tasks", [1, 2, 3])
@pytest.mark.parametrize("epochs", [0, 2])
@pytest.mark.parametrize("record", [False, True], ids=["quiet", "recording"])
def test_run_mode_equals_the_per_step_reference_loop(mode, layer_dims, num_tasks, epochs, record):
    # the schedule drawn once (lr column, surgery orders, Gram store) against
    # a scalar lr, a permutation and a fresh Gram stack per step: every bit
    # of the log, the report and the trained stack agrees
    conflict_level = 0.9 if num_tasks > 1 else 0.0  # one task has no conflict
    cfg = tiny_config(modes=[mode], model={"layer_dims": layer_dims},
                      schedule={"epochs": epochs, "steps_per_epoch": 5},
                      tasks={"num_tasks": num_tasks, "conflict_level": conflict_level},
                      surgery={"record_conflicts": record})
    log, models = run_mode(cfg, mode)
    losses, lrs, report, metrics, matrix = reference_run(cfg, mode)
    assert log.losses.shape == (cfg.total_steps(), num_tasks) and log.lrs.shape == (len(lrs),)
    assert log.losses.tolist() == losses and log.lrs.tolist() == lrs
    assert [r.hex() for r in log.losses.ravel().tolist()] == [
        x.hex() for row in losses for x in row]
    assert log.conflicts == ([] if report is None else [report])
    assert log.metrics.shape == (cfg.schedule.epochs + 1, num_tasks)
    assert [x.hex() for x in log.metrics.ravel().tolist()] == [x.hex() for row in metrics for x in row]
    assert np.array([m.params for m in models]).tobytes() == matrix.tobytes()

