"""The one gradient path: joint_gradient's rows against the one-task-at-a-time
gradient and against stacked_gradient, and the batch checks all entry points share."""

import numpy as np
import pytest

from helpers import random_batch, random_model

from ortho_lora import (
    CLASSIFICATION,
    REGRESSION,
    ParameterError,
    Rng,
    TaskSpec,
    joint_gradient,
    stack_copies,
    stacked_gradient,
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


def _mixed_specs(num_tasks):
    kinds = [TaskSpec(REGRESSION, 3), TaskSpec(CLASSIFICATION, 4), TaskSpec(REGRESSION, 2)]
    return [kinds[t % 3] for t in range(num_tasks)]


@pytest.mark.parametrize("num_tasks", [1, 3, 16])
@pytest.mark.parametrize("layer_dims", [(8, 7), (8, 7, 6), (8, 7, 6, 5)])
def test_stacked_rows_equal_joint_rows_on_equal_params(layer_dims, num_tasks):
    # T stacked copies of one model are that model: the two entry points agree bit for bit
    model = random_model(60, layer_dims=layer_dims, rank=3, specs=_mixed_specs(num_tasks),
                         randomize_b=True)
    batches = [random_batch(model, t, 5, seed=200 + t) for t in range(num_tasks)]
    stack, joint_losses = joint_gradient(model, batches)
    models = stack_copies(model, num_tasks)
    assert all(np.array_equal(m.params, model.params) for m in models)
    rows, losses = stacked_gradient(models, batches)
    assert np.array_equal(rows, stack.rows)
    assert losses == joint_losses


def _entry_call(entry, model, batches):
    """The models an entry point touches, and a call of it on batches."""
    if entry == "task_loss_and_gradient":
        return [model], lambda: task_loss_and_gradient(model, batches[0])
    if entry == "joint_gradient":
        return [model], lambda: joint_gradient(model, batches)
    models = stack_copies(model, 2)
    return models, lambda: stacked_gradient(models, batches)


@pytest.mark.parametrize("entry", ["joint_gradient", "stacked_gradient"])
def test_unequal_batch_sizes_rejected(entry):
    model = random_model(50, layer_dims=(6, 5, 4), rank=2, randomize_b=True)
    batches = [random_batch(model, 0, 3, seed=1), random_batch(model, 1, 7, seed=2)]
    models, call = _entry_call(entry, model, list(reversed(batches)))
    with pytest.raises(ParameterError, match="equal batch sizes"):
        call()
    assert [m.backward_passes for m in models] == [0] * len(models)


@pytest.mark.parametrize("entry", ["task_loss_and_gradient", "joint_gradient",
                                   "stacked_gradient"])
def test_empty_batch_rejected(entry):
    # one batch cannot differ in size from itself; the T = 1 path shares this check
    model = random_model(50, layer_dims=(6, 5, 4), rank=2, randomize_b=True)
    batches = [random_batch(model, 0, 0, seed=1), random_batch(model, 1, 0, seed=2)]
    models, call = _entry_call(entry, model, batches)
    with pytest.raises(ParameterError, match="at least one example"):
        call()
    assert [m.backward_passes for m in models] == [0] * len(models)
