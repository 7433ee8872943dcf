"""joint_gradient's per-task slices against the one-task-at-a-time gradient."""

import numpy as np
import pytest

from helpers import random_batch, random_model

from ortho_lora import (
    CLASSIFICATION,
    REGRESSION,
    Rng,
    TaskSpec,
    joint_gradient,
    task_loss_and_gradient,
)


def _per_task(model, batches):
    """(loss, TaskGradient) per batch from the one-task path."""
    out = []
    for b in batches:
        loss, stack = task_loss_and_gradient(model, b)
        out.append((loss, stack[0]))
    return out


@pytest.mark.parametrize("num_tasks", [3, 16])
def test_bit_identical_at_trainer_shapes(num_tasks):
    # 16x16 layer, rank 4, batch 16: the paper-default and many-tasks steps
    specs = [TaskSpec(REGRESSION, 4)] * num_tasks
    model = random_model(30, layer_dims=(16, 16), rank=4, alpha=16.0, specs=specs,
                         randomize_b=True)
    batches = [random_batch(model, t, 16, seed=40 + t) for t in range(num_tasks)]
    stack, losses = joint_gradient(model, batches)
    for t, (loss, want) in enumerate(_per_task(model, batches)):
        assert losses[t] == loss
        got = stack[t]
        assert got.task_id == t
        assert set(got.blocks) == set(want.blocks)
        for bid, arr in want.blocks.items():
            assert np.array_equal(got.blocks[bid], arr), f"task {t} block {bid}"


@pytest.mark.parametrize("seed", range(8))
def test_random_stacks_with_mixed_heads(seed):
    # 1-3 layers, regression and softmax heads of different out dims
    rng = Rng(seed)
    depth = 1 + seed % 3
    dims = [int(d) for d in rng.integers(3, 9, size=depth + 1)]
    specs = [TaskSpec(CLASSIFICATION, 3), TaskSpec(REGRESSION, 2)] + [
        TaskSpec(CLASSIFICATION if rng.integers(0, 2) else REGRESSION, int(rng.integers(2, 5)))
        for _ in range(int(rng.integers(0, 4)))]
    rank = min(2, *dims)
    model = random_model(seed, layer_dims=dims, rank=rank, specs=specs, randomize_b=True)
    batches = [random_batch(model, t, 6, seed=100 + t) for t in range(len(specs))]
    stack, losses = joint_gradient(model, batches)
    for t, (loss, want) in enumerate(_per_task(model, batches)):
        assert losses[t] == pytest.approx(loss, rel=1e-14)
        for bid, arr in want.blocks.items():
            got = stack[t].blocks[bid]
            assert np.abs(got - arr).max() <= 1e-14 * max(np.abs(arr).max(), 1e-300), bid


def test_unequal_batch_sizes_take_the_per_slice_path():
    model = random_model(50, layer_dims=(6, 5, 4), rank=2, randomize_b=True)
    batches = [random_batch(model, 0, 3, seed=1), random_batch(model, 1, 7, seed=2)]
    stack, losses = joint_gradient(model, list(reversed(batches)))
    assert stack.task_ids == [0, 1]
    for t, (loss, want) in enumerate(_per_task(model, batches)):
        assert losses[t] == pytest.approx(loss, rel=1e-14)
        for bid, arr in want.blocks.items():
            assert np.allclose(stack[t].blocks[bid], arr, rtol=1e-14, atol=0.0), bid
    assert stack.rows.shape == (2, model.params.size)
