import math

import numpy as np
import pytest

from helpers import joint_loss, random_batch, random_model, task_gradient

from ortho_lora import (
    CLASSIFICATION,
    REGRESSION,
    BlockId,
    NumericError,
    ParameterError,
    Rng,
    ShapeError,
    TaskBatch,
    TaskSpec,
    build_model,
    eval_metric,
    fd_gradient,
    joint_gradient,
    merge,
    predict,
    task_loss,
)
from ortho_lora.model import block_views


def oracle_task_loss(model, batch):
    """Independent forward-pass reimplementation: explicit effective weights,
    one example at a time."""
    total = 0.0
    n = batch.x.shape[1]
    spec = model.task_specs[batch.task_id]
    for col in range(n):
        h = batch.x[:, col]
        for layer in model.layers:
            ad = layer.adapter
            w_eff = layer.w0 + (ad.alpha / ad.rank) * (ad.b @ ad.a)
            h = np.tanh(w_eff @ h)
        out = model.heads[batch.task_id] @ h
        if spec.kind == REGRESSION:
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
        model = random_model(2, specs=[TaskSpec(CLASSIFICATION, 2)])
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
        model = random_model(9, specs=[TaskSpec(REGRESSION, 3)], randomize_b=True)
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
        for i in range(model.num_layers):
            a_grad = g.blocks[BlockId("A", i)]
            assert np.array_equal(a_grad, np.zeros_like(a_grad))
            fd = fd_gradient(model, batch, BlockId("A", i), h=1e-5)
            assert np.array_equal(fd, np.zeros_like(fd))

    def test_head_isolation(self):
        model = random_model(15, randomize_b=True)
        g = task_gradient(model, random_batch(model, 1, 4, seed=4))
        head_blocks = [b for b in g.blocks if b.role == "HEAD"]
        assert head_blocks == [BlockId("HEAD", 1)]

    def test_no_backbone_block(self):
        model = random_model(16, randomize_b=True)
        g = task_gradient(model, random_batch(model, 0, 4, seed=5))
        assert all(b.role in ("A", "B", "HEAD") for b in g.blocks)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_finite_differences(self, seed):
        rng = Rng(seed)
        dims = [int(d) for d in rng.integers(3, 9, size=int(rng.integers(2, 4)))]
        rank = int(rng.integers(1, min(dims) + 1))
        specs = [
            TaskSpec(REGRESSION if seed % 2 else CLASSIFICATION, 3),
            TaskSpec(CLASSIFICATION if seed % 2 else REGRESSION, 2),
        ]
        model = random_model(seed * 31 + 1, layer_dims=tuple(dims), rank=rank,
                             specs=specs, randomize_b=True)
        batch = random_batch(model, seed % 2, 4, seed=seed * 17 + 2)
        g = task_gradient(model, batch)
        for bid, analytic in g.blocks.items():
            fd = fd_gradient(model, batch, bid, h=1e-5)
            assert rel_err(analytic, fd) < 1e-5, f"block {bid}"


class TestFdGradient:
    def test_quadratic_in_head_is_exact(self):
        # regression loss is exactly quadratic in the head entries, so the
        # central difference has no truncation term
        model = random_model(17, specs=[TaskSpec(REGRESSION, 3)], randomize_b=True)
        batch = random_batch(model, 0, 5, seed=6)
        analytic = task_gradient(model, batch).blocks[BlockId("HEAD", 0)]
        fd = fd_gradient(model, batch, BlockId("HEAD", 0), h=1e-4)
        assert np.abs(analytic - fd).max() < 1e-8

    def test_zero_residual_fd_zero(self):
        model = random_model(18, randomize_b=True)
        x = Rng(3).standard_normal((model.in_dim, 4))
        batch = TaskBatch(0, x, predict(model, 0, x))
        fd = fd_gradient(model, batch, BlockId("B", 0), h=1e-5)
        assert np.abs(fd).max() < 1e-9

    def test_model_restored_exactly(self):
        model = random_model(19, randomize_b=True)
        before = {str(b): arr.copy() for b, arr in model.trainable_blocks().items()}
        fd_gradient(model, random_batch(model, 0, 3, seed=7), BlockId("A", 0), h=1e-5)
        for b, arr in model.trainable_blocks().items():
            assert np.array_equal(arr, before[str(b)])

    def test_bad_step(self):
        model = random_model(20)
        with pytest.raises(ParameterError):
            fd_gradient(model, random_batch(model, 0, 3, seed=8), BlockId("A", 0), h=0.0)


class TestJointGradient:
    def test_linearity_matches_per_task_sum(self):
        model = random_model(21, randomize_b=True)
        batches = [random_batch(model, t, 5, seed=20 + t) for t in range(2)]
        stack, losses = joint_gradient(model, batches)
        merged = block_views(merge(stack), stack.layout)
        per_task = [task_gradient(model, b) for b in batches]
        for bid, arr in merged.items():
            if bid.role == "HEAD":
                want = per_task[bid.index].blocks[bid]
            else:
                want = per_task[0].blocks[bid] + per_task[1].blocks[bid]
            assert rel_err(arr, want) < 1e-10, f"block {bid}"
        for loss, b in zip(losses, batches):
            assert loss == pytest.approx(task_loss(model, b), rel=1e-12)

    def test_loss_decomposition(self):
        model = random_model(22, randomize_b=True)
        batches = [random_batch(model, t, 5, seed=30 + t) for t in range(2)]
        total = joint_loss(model, batches)
        parts = sum(task_loss(model, b) for b in batches)
        assert total == pytest.approx(parts, rel=1e-12)


class TestEvalMetric:
    def test_perfect_regression_mse_zero(self):
        model = random_model(23, randomize_b=True)
        x = Rng(4).standard_normal((model.in_dim, 6))
        assert eval_metric(model, TaskBatch(0, x, predict(model, 0, x))) == 0.0

    def test_classification_accuracy_of_own_argmax(self):
        model = random_model(24, randomize_b=True)
        x = Rng(5).standard_normal((model.in_dim, 6))
        labels = predict(model, 1, x).argmax(axis=0)
        assert eval_metric(model, TaskBatch(1, x, labels)) == 1.0


def test_build_model_frozen_dims_compose():
    model = build_model([6, 5, 4], 2, 4.0, 0.02, [TaskSpec(REGRESSION, 3)], Rng(25))
    assert model.in_dim == 6
    assert model.layers[-1].w0.shape[0] == 4  # feature dim
    assert model.heads[0].shape == (3, 4)
