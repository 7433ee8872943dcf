import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fd_gradient,
    generator,
    joint_loss,
    merged_features,
    predict,
    random_batch,
    random_model,
    reference_metric,
    step_batch,
    step_losses,
    step_outs,
    task_gradient,
    task_loss,
)

from ortho_lora.dense import Rng
from ortho_lora.errors import NumericError, ParameterError, ShapeError
from ortho_lora.model import (
    CLASSIFICATION,
    REGRESSION,
    EvalPool,
    TaskBatch,
    _merged_weights,
    build_model,
    eval_metric,
    joint_gradient,
    stack_runs,
    task_loss_and_gradient,
)
from ortho_lora.surgery import merge


def oracle_task_loss(model, batch):
    """Independent forward-pass reimplementation: explicit effective weights,
    one example at a time."""
    total = 0.0
    n = batch.x.shape[1]
    for col in range(n):
        h = batch.x[:, col]
        for layer in model.layers:
            ad = layer.adapter
            w_eff = layer.w0 + (ad.alpha / ad.rank) * (ad.b @ ad.a)
            h = np.tanh(w_eff @ h)
        out = model.heads[batch.task_id] @ h
        if model.kinds[batch.task_id] == REGRESSION:
            r = out - batch.y[:, col]
            total += 0.5 * float(r @ r)
        else:
            z = out - out.max()
            p = np.exp(z) / np.exp(z).sum()
            total += -math.log(p[batch.y[col]])
    return total / n


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-6)
    return np.abs(a - b).max() / denom


class TestTaskLoss:
    def test_regression_zero_residual(self):
        model = random_model(0, randomize_b=True)
        x = Rng(1).standard_normal((model.in_dim, 5))
        y = predict(model, 0, x)
        assert task_loss(model, TaskBatch(0, x, y)) == 0.0

    def test_uniform_softmax_is_ln2(self):
        model = random_model(2, kinds=[CLASSIFICATION], out_dim=2)
        model.heads[0][...] = 0.0
        batch = random_batch(model, 0, 16, seed=3)
        assert task_loss(model, batch) == pytest.approx(math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("task_id", [0, 1])
    def test_matches_independent_oracle(self, task_id):
        model = random_model(4, layer_dims=(7, 6, 5, 4), rank=2, randomize_b=True)
        batch = random_batch(model, task_id, 8, seed=5)
        got = task_loss(model, batch)
        want = oracle_task_loss(model, batch)
        assert got == pytest.approx(want, rel=1e-10)

    def test_nonfinite_activation_names_layer(self):
        model = random_model(6)
        # saturate layer 0 to all-ones features, then overflow layer 1
        model.layers[0].w0[...] = 1.0
        model.layers[1].w0[...] = 1e308
        batch = random_batch(model, 0, 2, seed=7)
        batch.x[...] = 10.0
        with pytest.raises(NumericError, match="layer 1"):
            task_loss(model, batch)

    def test_bad_targets_shape(self):
        model = random_model(8)
        x = Rng(0).standard_normal((model.in_dim, 4))
        with pytest.raises(ShapeError):
            task_loss(model, TaskBatch(0, x, np.zeros((1, 4))))


class TestJointLoss:
    def test_single_task_equals_task_loss(self):
        model = random_model(9, kinds=[REGRESSION], randomize_b=True)
        batch = random_batch(model, 0, 6, seed=1)
        assert joint_loss(model, [batch]) == task_loss(model, batch)

    def test_zero_weights(self):
        model = random_model(10, randomize_b=True)
        batches = [random_batch(model, t, 5, seed=t) for t in range(2)]
        assert joint_loss(model, batches, weights=[0.0, 0.0]) == 0.0

    def test_weighted_composition(self):
        model = random_model(11, randomize_b=True)
        batches = [random_batch(model, t, 5, seed=10 + t) for t in range(2)]
        want = task_loss(model, batches[0]) + 2.0 * task_loss(model, batches[1])
        got = joint_loss(model, batches, weights=[1.0, 2.0])
        assert got == pytest.approx(want, rel=1e-12)

    def test_missing_task_batch(self):
        model = random_model(12)
        with pytest.raises(ParameterError):
            joint_loss(model, [random_batch(model, 0, 5, seed=0)])


class TestTaskGradient:
    def test_zero_residual_all_blocks_zero(self):
        model = random_model(13, randomize_b=True)
        x = Rng(2).standard_normal((model.in_dim, 5))
        batch = TaskBatch(0, x, predict(model, 0, x))
        g = task_gradient(model, batch)
        for bid, arr in g.blocks.items():
            assert np.array_equal(arr, np.zeros_like(arr)), f"nonzero grad in {bid}"

    def test_fresh_adapter_a_grads_zero_and_fd_confirms(self):
        # with b = 0 the chain rule forces dloss/da = 0 for every layer
        model = random_model(14, randomize_b=False)
        batch = random_batch(model, 0, 4, seed=3)
        g = task_gradient(model, batch)
        for i in range(len(model.layers)):
            a_grad = g.blocks[f"L{i}.A"]
            assert np.array_equal(a_grad, np.zeros_like(a_grad))
            fd = fd_gradient(model, batch, f"L{i}.A", h=1e-5)
            assert np.array_equal(fd, np.zeros_like(fd))

    def test_head_isolation(self):
        model = random_model(15, randomize_b=True)
        g = task_gradient(model, random_batch(model, 1, 4, seed=4))
        head_blocks = [b for b in g.blocks if b.startswith("HEAD")]
        assert head_blocks == ["HEAD1"]

    def test_no_backbone_block(self):
        model = random_model(16, randomize_b=True)
        g = task_gradient(model, random_batch(model, 0, 4, seed=5))
        assert all(re.fullmatch(r"L\d+\.[AB]|HEAD\d+", b) for b in g.blocks)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_finite_differences(self, seed):
        rng = generator(seed)
        dims = [int(d) for d in rng.integers(3, 9, size=int(rng.integers(2, 4)))]
        rank = int(rng.integers(1, min(dims) + 1))
        kinds = [REGRESSION, CLASSIFICATION] if seed % 2 else [CLASSIFICATION, REGRESSION]
        model = random_model(seed * 31 + 1, layer_dims=tuple(dims), rank=rank, kinds=kinds,
                             out_dim=2 + seed % 2, randomize_b=True)
        batch = random_batch(model, seed % 2, 4, seed=seed * 17 + 2)
        g = task_gradient(model, batch)
        for bid, analytic in g.blocks.items():
            fd = fd_gradient(model, batch, bid, h=1e-5)
            assert rel_err(analytic, fd) < 1e-5, f"block {bid}"


class TestFdGradient:
    def test_quadratic_in_head_is_exact(self):
        # regression loss is exactly quadratic in the head entries, so the
        # central difference has no truncation term
        model = random_model(17, kinds=[REGRESSION], randomize_b=True)
        batch = random_batch(model, 0, 5, seed=6)
        analytic = task_gradient(model, batch).blocks["HEAD0"]
        fd = fd_gradient(model, batch, "HEAD0", h=1e-4)
        assert np.abs(analytic - fd).max() < 1e-8

    def test_zero_residual_fd_zero(self):
        model = random_model(18, randomize_b=True)
        x = Rng(3).standard_normal((model.in_dim, 4))
        batch = TaskBatch(0, x, predict(model, 0, x))
        fd = fd_gradient(model, batch, "L0.B", h=1e-5)
        assert np.abs(fd).max() < 1e-9

    def test_model_restored_exactly(self):
        model = random_model(19, randomize_b=True)
        before = model.params.copy()
        fd_gradient(model, random_batch(model, 0, 3, seed=7), "L0.A", h=1e-5)
        assert np.array_equal(model.params, before)

    def test_bad_step(self):
        model = random_model(20)
        with pytest.raises(ParameterError):
            fd_gradient(model, random_batch(model, 0, 3, seed=8), "L0.A", h=0.0)


class TestJointGradient:
    def test_linearity_matches_per_task_sum(self):
        model = random_model(21, randomize_b=True)
        batches = [random_batch(model, t, 5, seed=20 + t) for t in range(2)]
        runs, step = stack_runs(model, 1), step_batch(model, batches)
        stack = joint_gradient(runs, step)
        losses = step_losses(runs, step)
        (merged,) = merge(stack, step_outs(stack).update)
        per_task = [task_gradient(model, b) for b in batches]
        for name, (sl, shape) in model.layout.blocks.items():
            if name.startswith("HEAD"):
                want = per_task[int(name[len("HEAD"):])].blocks[name]
            else:
                want = per_task[0].blocks[name] + per_task[1].blocks[name]
            assert rel_err(merged[sl].reshape(shape), want) < 1e-10, f"block {name}"
        for loss, b in zip(losses, batches):
            assert loss == pytest.approx(task_loss(model, b), rel=1e-12)

    def test_loss_decomposition(self):
        model = random_model(22, randomize_b=True)
        batches = [random_batch(model, t, 5, seed=30 + t) for t in range(2)]
        total = joint_loss(model, batches)
        parts = sum(task_loss(model, b) for b in batches)
        assert total == pytest.approx(parts, rel=1e-12)


def _eval_stack(model, stacked, seed):
    """The stack of model for eval_metric and the run of each task: one run of
    every task, or one run per task, each moved to its own point."""
    if not stacked:
        return stack_runs(model, 1), [0] * model.num_tasks
    stack = stack_runs(model, model.num_tasks)
    stack.matrix += 0.1 * Rng(seed).standard_normal(stack.matrix.shape)
    return stack, list(range(model.num_tasks))


class TestEvalMetric:
    def test_perfect_regression_mse_zero(self):
        # targets from the merged forward, which eval runs bit for bit
        model = random_model(23, randomize_b=True)
        x = Rng(4).standard_normal((model.in_dim, 6))
        batches = [TaskBatch(0, x, model.heads[0] @ merged_features(model, x))]
        assert eval_metric(stack_runs(model, 1), EvalPool.of(batches, model)) == [0.0]

    def test_classification_accuracy_of_own_argmax(self):
        model = random_model(24, randomize_b=True)
        x = Rng(5).standard_normal((model.in_dim, 6))
        labels = predict(model, 1, x).argmax(axis=0)
        pool = EvalPool.of([TaskBatch(1, x, labels)], model)
        assert eval_metric(stack_runs(model, 1), pool) == [1.0]

    @pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
    def test_bit_identical_at_trainer_shapes(self, stacked):
        # 16x16 layer, rank 4, 16 tasks of 2000 held-out examples: many-tasks' eval
        model = random_model(26, layer_dims=(16, 16), rank=4, alpha=16.0,
                             kinds=[REGRESSION] * 16, out_dim=4, randomize_b=True)
        stack, runs = _eval_stack(model, stacked, seed=27)
        batches = [random_batch(model, t, 2000, seed=60 + t) for t in range(16)]
        assert eval_metric(stack, EvalPool.of(batches, model)) == [
            reference_metric(stack.models[r], b) for r, b in zip(runs, batches)]

    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.sampled_from([REGRESSION, CLASSIFICATION]), min_size=1, max_size=16),
           dims=st.lists(st.integers(2, 8), min_size=2, max_size=4), out_dim=st.integers(2, 4),
           n=st.integers(1, 40), stacked=st.booleans(), seed=st.integers(0, 2**16))
    def test_equals_per_task_reference(self, kinds, dims, out_dim, n, stacked, seed):
        # 1-3 layers, mixed kinds, one shared model or T stacked ones
        model = random_model(seed, layer_dims=dims, rank=min(2, *dims), kinds=kinds,
                             out_dim=out_dim, randomize_b=True)
        stack, runs = _eval_stack(model, stacked, seed)
        batches = [random_batch(model, t, n, seed=seed + 1 + t) for t in range(len(kinds))]
        assert eval_metric(stack, EvalPool.of(batches, model)) == [
            reference_metric(stack.models[r], b) for r, b in zip(runs, batches)]

    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.sampled_from([REGRESSION, CLASSIFICATION]), min_size=1, max_size=8),
           dims=st.lists(st.integers(2, 8), min_size=2, max_size=4), out_dim=st.integers(2, 4),
           n=st.integers(1, 40), stacked=st.booleans(), seed=st.integers(0, 2**16))
    def test_merged_form_is_within_rounding_of_the_step_forward(self, kinds, dims, out_dim, n,
                                                                stacked, seed):
        # (w0 + s*b@a) h and w0 h + s*b@(a h) round apart, by ulps: each
        # regression MSE is within 1e-12 of the predict-based one, and each
        # accuracy equal where no two logits of an example are near a tie
        model = random_model(seed, layer_dims=dims, rank=min(2, *dims), kinds=kinds,
                             out_dim=out_dim, randomize_b=True)
        stack, runs = _eval_stack(model, stacked, seed)
        batches = [random_batch(model, t, n, seed=seed + 1 + t) for t in range(len(kinds))]
        got = eval_metric(stack, EvalPool.of(batches, model))
        for metric, r, batch in zip(got, runs, batches):
            run = stack.models[r]
            out = predict(run, 0 if run.num_tasks == 1 else batch.task_id, batch.x)
            if kinds[batch.task_id] == REGRESSION:
                assert metric == pytest.approx(float(np.mean((out - batch.y) ** 2)), rel=1e-12, abs=0)
            else:
                top2 = np.sort(out, axis=0)[-2:]
                if (top2[1] - top2[0] > 1e-9 * (1 + np.abs(top2[1]))).all():
                    assert metric == float(np.mean(out.argmax(axis=0) == batch.y))

    @pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
    def test_fresh_adapters_merge_to_the_backbone_bit_for_bit(self, stacked):
        # b = 0 makes w0 + s*b@a exactly w0, so an epoch-0 eval is the
        # backbone's own, as criterion 04 holds for the step's forward
        model = random_model(33, layer_dims=(6, 5, 4), sigma=0.5, kinds=[REGRESSION, CLASSIFICATION] * 2)
        stack = stack_runs(model, 4 if stacked else 1)
        for layer, weights in zip(model.layers, _merged_weights(stack)):
            assert all(w.tobytes() == layer.w0.tobytes() for w in weights)
        batches = [random_batch(model, t, 7, seed=100 + t) for t in range(4)]
        want = []
        for batch in batches:
            h = batch.x
            for layer in model.layers:
                h = np.tanh(layer.w0 @ h)
            out = stack.heads[batch.task_id] @ h
            want.append(float(np.mean(out.argmax(axis=0) == batch.y)) if batch.y.ndim == 1
                        else float(np.mean((out - batch.y) ** 2)))
        assert eval_metric(stack, EvalPool.of(batches, model)) == want

    @pytest.mark.parametrize("where", ["layer 1", "head 1"])
    def test_non_finite_names_the_layer_or_head(self, where):
        model = random_model(28, layer_dims=(6, 5, 4), randomize_b=True)
        if where == "layer 1":
            model.layers[1].w0[0, 0] = np.inf
        else:
            model.heads[1][0, 0] = np.nan
        batches = [random_batch(model, t, 5, seed=70 + t) for t in range(2)]
        for check in (lambda: eval_metric(stack_runs(model, 1), EvalPool.of(batches, model)),
                      lambda: reference_metric(model, batches[1])):
            with pytest.raises(NumericError, match=where):
                check()

    @pytest.mark.parametrize("task_id", [-1, 2])
    def test_task_id_outside_the_model_rejected(self, task_id):
        # the model has no head for an id outside its tasks, and a stack of
        # it evaluates only a pool built for its tasks
        model = random_model(31, randomize_b=True)
        x = Rng(6).standard_normal((model.in_dim, 5))
        batch = TaskBatch(task_id, x, np.zeros((model.out_dim, 5)))
        for check in (lambda: EvalPool.of([batch], model),
                      lambda: task_loss_and_gradient(model, batch)):
            with pytest.raises(ParameterError, match=rf"task_id {task_id} outside \[0, 2\)"):
                check()

    def test_one_model_per_batch_of_one_size(self):
        # a stack runs each task's batch through the one run that holds its head
        model = random_model(29, randomize_b=True)
        batches = [random_batch(model, 0, 5, seed=80), random_batch(model, 1, 5, seed=81)]
        with pytest.raises(ParameterError, match="equal batch sizes"):
            EvalPool.of(batches[:1] + [random_batch(model, 1, 6, seed=81)], model)
        with pytest.raises(ParameterError, match="at least one eval batch"):
            EvalPool.of([], model)

    def test_models_of_other_kinds_rejected(self):
        # the pool's targets were checked for its model's task kinds, and
        # every one of them is a task a stack of that model runs
        model = random_model(32, randomize_b=True)
        pool = EvalPool.of([random_batch(model, t, 5, seed=90 + t) for t in range(2)], model)
        swapped = random_model(32, kinds=[CLASSIFICATION, REGRESSION], randomize_b=True)
        wider = random_model(32, kinds=[REGRESSION, CLASSIFICATION, REGRESSION], randomize_b=True)
        for other in (stack_runs(swapped, 1), stack_runs(wider, 3)):
            with pytest.raises(ParameterError, match="eval pool's kinds"):
                eval_metric(other, pool)


def test_build_model_frozen_dims_compose():
    model = build_model([6, 5, 4], 2, 4.0, 0.02, [REGRESSION], 3, Rng(25))
    assert model.in_dim == 6
    assert model.layers[-1].w0.shape[0] == 4  # feature dim
    assert model.heads.shape == (1, 3, 4)
    assert model.heads[0].shape == (3, 4)
