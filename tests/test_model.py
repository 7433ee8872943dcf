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
    predict,
    random_batch,
    random_model,
    task_gradient,
    task_loss,
)

from ortho_lora.dense import Rng
from ortho_lora.errors import NumericError, ParameterError, ShapeError
from ortho_lora.model import (
    CLASSIFICATION,
    REGRESSION,
    TaskBatch,
    build_model,
    eval_metric,
    joint_gradient,
    stack_copies,
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
        for i in range(model.num_layers):
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
        stack, losses = joint_gradient(model, batches)
        merged = merge(stack)
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


def reference_metric(model, batch):
    """One task's eval written out on its own: a fresh forward with no output
    buffers, the task's head (a one-task model's only head), then MSE or
    accuracy; the same products and the same NumericError messages as
    eval_metric."""
    own = 0 if model.num_tasks == 1 else batch.task_id
    h = batch.x
    for i, layer in enumerate(model.layers):
        ad = layer.adapter
        with np.errstate(over="ignore", invalid="ignore"):
            z = layer.w0 @ h + ad.scale * (ad.b @ (ad.a @ h))
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite activations at layer {i}")
        h = np.tanh(z)
    out = model.heads[own] @ h
    if not np.isfinite(out).all():
        raise NumericError(f"non-finite activations at head {batch.task_id}")
    if model.kinds[own] == CLASSIFICATION:
        return float(np.mean(out.argmax(axis=0) == batch.y))
    return float(np.mean((out - batch.y) ** 2))


def _eval_models(model, count, stacked, seed):
    """count models for eval_metric: the one model repeated, or its count
    stacked one-task copies each moved to its own point."""
    if not stacked:
        return [model] * count
    models = stack_copies(model)
    params = models[0].params.base
    params += 0.1 * Rng(seed).standard_normal(params.shape)
    return models


class TestEvalMetric:
    def test_perfect_regression_mse_zero(self):
        model = random_model(23, randomize_b=True)
        x = Rng(4).standard_normal((model.in_dim, 6))
        assert eval_metric([model], [TaskBatch(0, x, predict(model, 0, x))]) == [0.0]

    def test_classification_accuracy_of_own_argmax(self):
        model = random_model(24, randomize_b=True)
        x = Rng(5).standard_normal((model.in_dim, 6))
        labels = predict(model, 1, x).argmax(axis=0)
        assert eval_metric([model], [TaskBatch(1, x, labels)]) == [1.0]

    @pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
    def test_bit_identical_at_trainer_shapes(self, stacked):
        # 16x16 layer, rank 4, 16 tasks of 2000 held-out examples: many-tasks' eval
        model = random_model(26, layer_dims=(16, 16), rank=4, alpha=16.0,
                             kinds=[REGRESSION] * 16, out_dim=4, randomize_b=True)
        models = _eval_models(model, 16, stacked, seed=27)
        batches = [random_batch(model, t, 2000, seed=60 + t) for t in range(16)]
        assert eval_metric(models, batches) == [
            reference_metric(m, b) for m, b in zip(models, batches)]

    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.sampled_from([REGRESSION, CLASSIFICATION]), min_size=1, max_size=16),
           dims=st.lists(st.integers(2, 8), min_size=2, max_size=4), out_dim=st.integers(2, 4),
           n=st.integers(1, 40), stacked=st.booleans(), seed=st.integers(0, 2**16))
    def test_equals_per_task_reference(self, kinds, dims, out_dim, n, stacked, seed):
        # 1-3 layers, mixed kinds, one shared model or T stacked ones
        model = random_model(seed, layer_dims=dims, rank=min(2, *dims), kinds=kinds,
                             out_dim=out_dim, randomize_b=True)
        models = _eval_models(model, len(kinds), stacked, seed)
        batches = [random_batch(model, t, n, seed=seed + 1 + t) for t in range(len(kinds))]
        assert eval_metric(models, batches) == [
            reference_metric(m, b) for m, b in zip(models, batches)]

    @pytest.mark.parametrize("where", ["layer 1", "head 1"])
    def test_non_finite_names_the_layer_or_head(self, where):
        model = random_model(28, layer_dims=(6, 5, 4), randomize_b=True)
        if where == "layer 1":
            model.layers[1].w0[0, 0] = np.inf
        else:
            model.heads[1][0, 0] = np.nan
        batches = [random_batch(model, t, 5, seed=70 + t) for t in range(2)]
        for check in (lambda: eval_metric([model] * 2, batches),
                      lambda: reference_metric(model, batches[1])):
            with pytest.raises(NumericError, match=where):
                check()

    @pytest.mark.parametrize("task_id", [-1, 2])
    def test_task_id_outside_the_model_rejected(self, task_id):
        # a one-task model runs any batch through its only head; a wider one
        # has no head for an id outside its tasks
        model = random_model(31, randomize_b=True)
        x = Rng(6).standard_normal((model.in_dim, 5))
        batch = TaskBatch(task_id, x, np.zeros((model.out_dim, 5)))
        for check in (lambda: eval_metric([model], [batch]),
                      lambda: task_loss_and_gradient(model, batch)):
            with pytest.raises(ParameterError, match=rf"task_id {task_id} outside \[0, 2\)"):
                check()
        one_task = stack_copies(random_model(31, kinds=[REGRESSION], randomize_b=True))[0]
        assert eval_metric([one_task], [batch]) == [reference_metric(one_task, batch)]

    def test_one_model_per_batch_of_one_size(self):
        model = random_model(29, randomize_b=True)
        batches = [random_batch(model, 0, 5, seed=80), random_batch(model, 1, 6, seed=81)]
        with pytest.raises(ParameterError, match="one model per batch"):
            eval_metric([model], batches)
        with pytest.raises(ParameterError, match="equal batch sizes"):
            eval_metric([model] * 2, batches)


def test_build_model_frozen_dims_compose():
    model = build_model([6, 5, 4], 2, 4.0, 0.02, [REGRESSION], 3, Rng(25))
    assert model.in_dim == 6
    assert model.layers[-1].w0.shape[0] == 4  # feature dim
    assert model.heads.shape == (1, 3, 4)
    assert model.heads[0].shape == (3, 4)
