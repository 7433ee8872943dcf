import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    TaskView,
    conflict_set,
    random_model,
    stack_of,
    step_batch,
    step_losses,
    step_report,
    task_gradient,
    task_views,
    train_views,
)

from ortho_lora.config import config_from_dict
from ortho_lora.dense import Rng
from ortho_lora.errors import ConfigError, ParameterError
from ortho_lora.model import (
    CLASSIFICATION,
    PER_MATRIX,
    REGRESSION,
    build_model,
    joint_gradient,
    stack_runs,
)
from ortho_lora import tasks
from ortho_lora.tasks import subset_batch
from ortho_lora.trainer import run_experiment

KIND_ORDER = [REGRESSION, CLASSIFICATION]  # the pool's and a StepBatch's kind order


class TestRegressionConflict:
    def test_zero_conflict_identical_teachers_and_gradients(self):
        ts = conflict_set([REGRESSION] * 3, 6, 3, conflict_level=0.0,
                          noise_sigma=0.0, n_train=32, n_eval=8, rng=Rng(0))
        for w in ts.teachers[1:]:
            assert np.array_equal(w, ts.teachers[0])
        # at a shared parameter point (identical heads included) with shared
        # inputs, all task gradients agree
        model = build_model([6, 5], 2, 4.0, 0.1, ts.kinds, 3, Rng(1))
        for layer in model.layers:
            layer.adapter.b[...] = Rng(2).standard_normal(layer.adapter.b.shape)
        for head in model.heads[1:]:
            head[...] = model.heads[0]
        shared_x = train_views(ts)[0].x[:, :16]
        grads = [task_gradient(model, TaskView(t, shared_x, ts.teachers[t] @ shared_x))
                 for t in range(3)]
        stack = stack_of(grads)
        report = step_report(stack, PER_MATRIX)
        for p in report.pairs:
            assert p.cosine == pytest.approx(1.0, abs=1e-9)

    def test_full_conflict_antipodal_teachers(self):
        ts = conflict_set([REGRESSION] * 2, 6, 3, conflict_level=1.0,
                          noise_sigma=0.0, n_train=32, n_eval=8,
                          rng=Rng(3), shared_scale=0.0)
        assert np.allclose(ts.teachers[0], -ts.teachers[1], rtol=0, atol=0)

    def test_fresh_model_sees_conflict_on_an_adapter_block(self):
        ts = conflict_set([REGRESSION] * 2, 6, 3, conflict_level=1.0,
                          noise_sigma=0.0, n_train=64, n_eval=8,
                          rng=Rng(4), shared_scale=0.0)
        model = build_model([6, 5], 2, 4.0, 0.02, ts.kinds, 3, Rng(5))
        grads = [task_gradient(model, view) for view in train_views(ts)]
        stack = stack_of(grads)
        report = step_report(stack, PER_MATRIX)
        assert any(p.conflicted for p in report.pairs)

    def test_pool_sizes_and_disjointness(self):
        ts = conflict_set([REGRESSION] * 2, 4, 2, conflict_level=0.5,
                          noise_sigma=0.0, n_train=10, n_eval=7, rng=Rng(6))
        for train, held_out in zip(train_views(ts), task_views(ts.eval), strict=True):
            assert train.x.shape == (4, 10)
            assert held_out.x.shape == (4, 7)
            # continuous draws: no train column reappears in eval
            joined = np.concatenate([train.x, held_out.x], axis=1)
            assert np.unique(joined, axis=1).shape[1] == 17

    def test_deterministic_from_seed(self):
        a = conflict_set([REGRESSION] * 2, 4, 2, 0.5, 0.1, 8, 4, Rng(7))
        b = conflict_set([REGRESSION] * 2, 4, 2, 0.5, 0.1, 8, 4, Rng(7))
        for a_t, b_t in zip(train_views(a), train_views(b), strict=True):
            assert np.array_equal(a_t.x, b_t.x)
            assert np.array_equal(a_t.y, b_t.y)


class TestClassificationConflict:
    def test_zero_conflict_shared_labels(self):
        ts = conflict_set([CLASSIFICATION] * 3, 6, 2, conflict_level=0.0,
                          noise_sigma=0.0, n_train=40, n_eval=10, rng=Rng(8))
        # identical teachers relabel identical inputs identically
        for t, train in enumerate(train_views(ts)):
            want = (ts.teachers[t] @ train.x).argmax(axis=0)
            assert np.array_equal(train.y, want)

    def test_labels_reproducible(self):
        a = conflict_set([CLASSIFICATION] * 2, 5, 3, 0.5, 0.0, 30, 10, Rng(9))
        b = conflict_set([CLASSIFICATION] * 2, 5, 3, 0.5, 0.0, 30, 10, Rng(9))
        for a_t, b_t in zip(train_views(a) + task_views(a.eval), train_views(b) + task_views(b.eval),
                            strict=True):
            assert np.array_equal(a_t.y, b_t.y)

    def test_class_balance_guard(self):
        for seed in range(5):
            ts = conflict_set([CLASSIFICATION] * 3, 8, 4, 0.8, 0.0, 100, 50, Rng(seed))
            for pool in train_views(ts) + task_views(ts.eval):
                counts = np.bincount(pool.y, minlength=4)
                assert counts.min() >= 0.10 * pool.y.size

    def test_mixed_kinds(self):
        ts = conflict_set([REGRESSION, CLASSIFICATION], 5, 2, 0.5, 0.0, 20, 8, Rng(10))
        assert ts.kinds == [REGRESSION, CLASSIFICATION]
        assert [view.y.shape for view in train_views(ts)] == [(2, 20), (20,)]
        assert [view.y.shape for view in task_views(ts.eval)] == [(2, 8), (8,)]


def test_conflict_frequency_monotone_in_conflict_level():
    # measured conflict frequency during joint training is non-decreasing in
    # the conflict level, averaged over 5 seeds
    def mean_freq(level):
        freqs = []
        for seed in range(5):
            cfg = config_from_dict({
                "version": 1, "seed": seed, "modes": ["JOINT"],
                "model": {"layer_dims": [16, 16], "rank": 4, "alpha": 16.0, "sigma_init": 0.02},
                "optimizer": {"lr_base": 0.01},
                "schedule": {"epochs": 2, "batch_size": 16},
                "tasks": {"kind": "regression", "num_tasks": 3, "in_dim": 16, "out_dim": 4,
                          "conflict_level": level, "noise_sigma": 0.0, "shared_scale": 1.0,
                          "n_train": 480, "n_eval": 16},
            })
            # the fraction of recorded (step, pair, block) rows whose dot is negative
            pairs = [p for report in run_experiment(cfg).logs["JOINT"].conflicts
                     for p in report.pairs]
            freqs.append(sum(p.conflicted for p in pairs) / len(pairs))
        return sum(freqs) / len(freqs)

    freq_0 = mean_freq(0.0)
    freq_half = mean_freq(0.5)
    freq_full = mean_freq(1.0)
    assert freq_0 <= freq_half <= freq_full
    assert freq_full > 0.1  # full conflict produces substantial disagreement


@pytest.mark.parametrize("kind", [REGRESSION, CLASSIFICATION])
@pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
def test_subset_batch_copies_rows_once(kind, as_array):
    ts = conflict_set([kind], 3, 2, 0.0, 0.0, 12, 2, Rng(12))
    (pool,) = train_views(ts)
    cols = [5, 0, 7, 7]
    (sub,) = subset_batch(ts.train_pool, np.array([[cols]]) if as_array else [[cols]])
    ((sub_kind, ids, y),) = sub.targets
    assert sub_kind == kind and ids == [0]
    assert not np.shares_memory(sub.x, pool.x) and not np.shares_memory(y, pool.y)
    assert sub.x.flags["C_CONTIGUOUS"] and y.flags["C_CONTIGUOUS"]
    assert np.array_equal(sub.x, pool.x[None, :, cols])
    assert np.array_equal(y, pool.y[None, ..., cols])
    sub.x[...] = 0.0
    assert np.count_nonzero(pool.x[:, cols]) == pool.x[:, cols].size


def test_train_pool_is_one_stack_of_views():
    kinds = [CLASSIFICATION, REGRESSION, CLASSIFICATION, REGRESSION]
    ts = conflict_set(kinds, 3, 2, 0.5, 0.1, 9, 4, Rng(13))
    pool = ts.train_pool
    # one row per example: (T, N, k) inputs, (R, N, o) values, (C, N) labels
    assert pool.x.shape == (4, 9, 3)
    assert [(kind, ids, y.shape) for kind, ids, y in pool.targets] == [
        (REGRESSION, [1, 3], (2, 9, 2)), (CLASSIFICATION, [0, 2], (2, 9))]
    for t, batch in enumerate(train_views(ts)):
        assert batch.task_id == t
        assert batch.x.shape == (3, 9) and np.shares_memory(batch.x, pool.x)
        assert np.array_equal(batch.x, pool.x[t].T)
        (kind, ids, y), = [target for target in pool.targets if t in target[1]]
        assert kind == kinds[t]
        assert np.shares_memory(batch.y, y)
        assert np.array_equal(batch.y, y[ids.index(t)].T)


def test_eval_set_is_one_c_contiguous_stack_of_the_held_out_columns():
    # eval multiplies each task's (k, n_eval) slab of one C-contiguous
    # (T, k, n_eval) array, its bits depend on that layout: slab t is the
    # columns n_train: of task t's draw, the first attempt that fills both
    # label pools for a classification task, attempt 0 for a regression one
    kinds = [CLASSIFICATION, REGRESSION, CLASSIFICATION, REGRESSION]
    ts = conflict_set(kinds, 3, 2, 0.5, 0.1, 9, 6, Rng(15))
    held_out = ts.eval
    assert held_out.first == 0 and held_out.x.shape == (4, 3, 6)
    assert held_out.x.flags["C_CONTIGUOUS"]
    assert [(kind, ids, y.shape, y.flags["C_CONTIGUOUS"]) for kind, ids, y in held_out.targets] == [
        (REGRESSION, [1, 3], (2, 2, 6), True), (CLASSIFICATION, [0, 2], (2, 6), True)]

    def draw(t, attempt):
        r = Rng(15).child(1).child(t).child(attempt)
        x = r.standard_normal((3, 15))
        y = ts.teachers[t] @ x
        return x, y + 0.1 * r.standard_normal(y.shape)

    for t, (train, view) in enumerate(zip(train_views(ts), task_views(held_out), strict=True)):
        x, y = next(d for d in map(draw, [t] * 100, range(100)) if np.array_equal(d[0][:, :9], train.x))
        assert view.x.tobytes() == x[:, 9:].tobytes()
        want = y[:, 9:] if kinds[t] == REGRESSION else y[:, 9:].argmax(axis=0)
        assert view.y.tobytes() == want.tobytes()


def _per_task_take(ts, idx):
    """The reference gather: one take per task from its own pool batch."""
    return [(pool.x.take(cols, axis=1), pool.y.take(cols, axis=-1))
            for pool, cols in zip(train_views(ts), idx)]


def _assert_step_equals_per_task_take(step, ts, idx):
    """step holds the per-task takes bit for bit: a C-contiguous (T, k, n)
    input and each kind's targets stacked in task order."""
    want = _per_task_take(ts, idx)
    assert step.first == 0 and step.x.flags["C_CONTIGUOUS"]
    assert step.x.shape == (len(want), *want[0][0].shape)
    for x_t, (x, _) in zip(step.x, want):
        assert np.array_equal(x_t, x) and x_t.dtype == x.dtype
    assert [kind for kind, _, _ in step.targets] == sorted(set(ts.kinds), key=KIND_ORDER.index)
    for kind, ids, y in step.targets:
        assert ids == [t for t, k in enumerate(ts.kinds) if k == kind]
        assert y.flags["C_CONTIGUOUS"]
        for y_t, t in zip(y, ids, strict=True):
            assert np.array_equal(y_t, want[t][1]) and y_t.dtype == want[t][1].dtype


@pytest.mark.parametrize("seed", range(6))
def test_subset_batch_equals_per_task_take(seed, monkeypatch):
    # a (T, S, n) block gives S steps, step s the per-task takes of idx[:, s],
    # gathered in one run of steps or in several
    rng = np.random.default_rng(seed)
    kinds = [CLASSIFICATION if rng.integers(0, 2) else REGRESSION
             for _ in range(int(rng.integers(1, 17)))]
    ts = conflict_set(kinds, 4, 3, 0.0, 0.1, 20, 4, Rng(seed))
    idx = rng.integers(0, 20, size=(len(kinds), int(rng.integers(1, 5)), int(rng.integers(1, 21))))
    for gather_entries in (1, 300, tasks.GATHER_ENTRIES):
        monkeypatch.setattr(tasks, "GATHER_ENTRIES", gather_entries)
        steps = subset_batch(ts.train_pool, idx)
        assert len(steps) == idx.shape[1]
        for s, step in enumerate(steps):
            _assert_step_equals_per_task_take(step, ts, idx[:, s])


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from(KIND_ORDER), min_size=1, max_size=16),
       size=st.integers(10, 30), n=st.integers(1, 24), seed=st.integers(0, 2**16))
def test_subset_batch_step_equals_checked_task_batches(kinds, size, n, seed):
    # the gathered StepBatch is the per-task takes, and joint_gradient on
    # both kinds of stack gives on it, bit for bit, what it gives on those takes as checked
    # per-task views (in shuffled order) stacked by step_batch
    ts = conflict_set(kinds, 4, 2, 0.5 if len(kinds) > 1 else 0.0, 0.1, size, 8, Rng(seed))
    idx = np.random.default_rng(seed).integers(0, size, size=(len(kinds), n))
    (step,) = subset_batch(ts.train_pool, idx[:, None])
    _assert_step_equals_per_task_take(step, ts, idx)
    batches = [TaskView(t, x, y) for t, (x, y) in enumerate(_per_task_take(ts, idx))][::-1]
    model = random_model(seed, layer_dims=(4, 5, 3), kinds=kinds, out_dim=2, randomize_b=True)
    stacked = step_batch(model, batches)
    # a stack's rows hold until its next step: each call gets a stack of its own
    def on_runs(batch, runs=1):
        stack = stack_runs(model, runs)
        if runs > 1:
            stack.matrix += 0.1 * Rng(seed).standard_normal(stack.matrix.shape)
        return joint_gradient(stack, batch), step_losses(stack, batch)

    (got, got_losses), (want, want_losses) = (on_runs(b) for b in (step, stacked))
    assert np.array_equal(got.rows, want.rows) and got.task_ids == want.task_ids
    assert got_losses == want_losses

    (got, got_losses), (want, want_losses) = (on_runs(b, len(kinds)) for b in (step, stacked))
    assert np.array_equal(got.rows, want.rows) and got_losses == want_losses


@pytest.mark.parametrize("idx,match", [
    ([[[0, 1]]], r"\(2, S, n >= 1\) index block"),
    ([[0, 1], [2, 3]], r"\(2, S, n >= 1\) index block"),
    ([[[]], [[]]], r"\(2, S, n >= 1\) index block, got shape \(2, 1, 0\)"),
    ([[[0, 1]], [[2, 8]]], r"in \[0, 8\)"),
    ([[[0, -1]], [[2, 3]]], r"in \[0, 8\)"),
], ids=["one row for two tasks", "one step without its axis", "empty batches",
        "index past the pool", "negative index"])
def test_subset_batch_rejects_bad_index_block(idx, match):
    ts = conflict_set([REGRESSION, CLASSIFICATION], 3, 2, 0.5, 0.0, 8, 2, Rng(14))
    with pytest.raises(ParameterError, match=match):
        subset_batch(ts.train_pool, idx)


def test_a_label_pool_no_draw_fills_names_the_task_and_the_short_pool():
    # 8 classes in 8 training examples is one example each: possible, never drawn
    with pytest.raises(ConfigError, match=r"could not draw task 1's labels with each of 8 classes "
                                          r">= 10% .* short: tasks\.n_train \(8 examples\) 100 times"):
        conflict_set([REGRESSION, CLASSIFICATION], 6, 8, 0.5, 1.0, 8, 200, Rng(0))
