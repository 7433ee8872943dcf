"""The one gradient path: joint_gradient's rows against the one-task-at-a-time
gradient and against stacked_gradient, the batched heads against a per-task
head loop, and the batch checks all entry points share."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import generator, random_batch, random_model

from ortho_lora.dense import Rng
from ortho_lora.errors import ParameterError, ShapeError
from ortho_lora.model import (
    CLASSIFICATION,
    REGRESSION,
    _backprop_stack,
    forward_features,
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
    model = random_model(30, layer_dims=(16, 16), rank=4, alpha=16.0,
                         kinds=[REGRESSION] * num_tasks, out_dim=4, randomize_b=True)
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
    # 1-3 layers, regression and softmax heads; the out dim is drawn per seed
    rng = generator(seed)
    depth = 1 + seed % 3
    dims = [int(d) for d in rng.integers(3, 9, size=depth + 1)]
    kinds = [CLASSIFICATION, REGRESSION] + [
        CLASSIFICATION if rng.integers(0, 2) else REGRESSION
        for _ in range(int(rng.integers(0, 4)))]
    rank = min(2, *dims)
    model = random_model(seed, layer_dims=dims, rank=rank, kinds=kinds,
                         out_dim=int(rng.integers(2, 5)), randomize_b=True)
    batches = [random_batch(model, t, 6, seed=100 + t) for t in range(len(kinds))]
    stack, losses = joint_gradient(model, batches)
    for t, (loss, want) in enumerate(_per_task(model, batches)):
        assert losses[t] == pytest.approx(loss, rel=1e-14)
        for bid, arr in want.blocks.items():
            got = stack[t].blocks[bid]
            assert np.abs(got - arr).max() <= 1e-14 * max(np.abs(arr).max(), 1e-300), bid


def _mixed_kinds(num_tasks):
    return [(REGRESSION, CLASSIFICATION, REGRESSION)[t % 3] for t in range(num_tasks)]


@pytest.mark.parametrize("num_tasks", [1, 3, 16])
@pytest.mark.parametrize("layer_dims", [(8, 7), (8, 7, 6), (8, 7, 6, 5)])
def test_stacked_rows_equal_joint_rows_on_equal_params(layer_dims, num_tasks):
    # T stacked one-task copies of one model hold its adapters and their task's
    # head: the two entry points agree bit for bit
    model = random_model(60, layer_dims=layer_dims, rank=3, kinds=_mixed_kinds(num_tasks),
                         out_dim=4, randomize_b=True)
    batches = [random_batch(model, t, 5, seed=200 + t) for t in range(num_tasks)]
    stack, joint_losses = joint_gradient(model, batches)
    models = stack_copies(model)
    adapters = model.params[:model.layout.heads.start]
    assert all(np.array_equal(m.params, np.concatenate((adapters, model.heads[t].ravel())))
               for t, m in enumerate(models))
    rows, losses = stacked_gradient(models, batches)
    assert np.array_equal(rows, stack.rows)
    assert losses == joint_losses


def _entry_call(entry, model, batches):
    """The models an entry point touches, and a call of it on batches."""
    if entry == "task_loss_and_gradient":
        return [model], lambda: task_loss_and_gradient(model, batches[0])
    if entry == "joint_gradient":
        return [model], lambda: joint_gradient(model, batches)
    models = stack_copies(model)
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


@pytest.mark.parametrize("entry", ["task_loss_and_gradient", "joint_gradient",
                                   "stacked_gradient"])
@pytest.mark.parametrize("task,target,error,match", [
    (0, np.zeros((1, 5)), ShapeError, "task 0"),
    (1, np.zeros((5, 1), dtype=np.int64), ShapeError, "task 1"),
    (1, np.array([0, 1, 3, 0, 1]), ParameterError, r"labels outside \[0, 3\) for task 1"),
], ids=["regression shape", "label shape", "label range"])
def test_bad_targets_rejected_naming_the_task(entry, task, target, error, match):
    model = random_model(50, layer_dims=(6, 5, 4), rank=2, randomize_b=True)
    batches = [random_batch(model, t, 5, seed=1 + t) for t in range(2)]
    batches[task].y = target
    batches.insert(0, batches.pop(task))  # first: the batch the one-task entry point reads
    models, call = _entry_call(entry, model, batches)
    with pytest.raises(error, match=match):
        call()
    assert [m.backward_passes for m in models] == [0] * len(models)


def _per_task_heads(models, ordered, adapters=None):
    """Rows and losses with the heads run one task at a time: the reference for
    the batched head step (same forward and backward, a per-task head loop).
    Row t is the adapter columns, then the head's; a one-task model runs its
    only head."""
    base = models[0]
    features, caches = forward_features(base, np.stack([b.x for b in ordered]), adapters)
    adapter_cols = base.layout.heads.start
    rows = np.zeros((len(ordered), adapter_cols + base.heads[0].size))
    delta = np.empty_like(features)
    losses = []
    for t, (m, b) in enumerate(zip(models, ordered)):
        own = 0 if m.num_tasks == 1 else b.task_id
        head = m.heads[own]
        out = head @ features[t]
        n = out.shape[1]
        if m.kinds[own] == REGRESSION:
            resid = out - b.y
            losses.append(0.5 * float((resid * resid).sum()) / n)
            g_out = resid / n
        else:
            shifted = out - out.max(axis=0, keepdims=True)
            expz = np.exp(shifted)
            denom = expz.sum(axis=0, keepdims=True)
            log_probs = shifted - np.log(denom)
            idx = np.arange(n)
            losses.append(-float(log_probs[b.y, idx].sum()) / n)
            g_out = expz / denom
            g_out[b.y, idx] -= 1.0
            g_out = g_out / n
        rows[t, adapter_cols:] = (g_out @ features[t].T).ravel()
        delta[t] = head.T @ g_out
    _backprop_stack(base, caches, delta, rows)
    return rows, losses


@settings(max_examples=60, deadline=None)
@given(entry=st.sampled_from(["task_loss_and_gradient", "joint_gradient", "stacked_gradient"]),
       kinds=st.lists(st.sampled_from([REGRESSION, CLASSIFICATION]), min_size=1, max_size=16),
       dims=st.lists(st.integers(2, 8), min_size=2, max_size=4), out_dim=st.integers(2, 4),
       n=st.integers(1, 6), data=st.data())
def test_batched_heads_equal_per_task_head_loop(entry, kinds, dims, out_dim, n, data):
    # T = 1 runs a nonzero task of a model with at least two heads
    if entry == "task_loss_and_gradient" and len(kinds) == 1:
        kinds = kinds + [REGRESSION]
    seed = data.draw(st.integers(0, 2**16))
    model = random_model(seed, layer_dims=dims, rank=min(2, *dims), kinds=kinds,
                         out_dim=out_dim, randomize_b=True)
    batches = [random_batch(model, t, n, seed=seed + 1 + t) for t in range(len(kinds))]
    if entry == "task_loss_and_gradient":
        task = data.draw(st.integers(1, len(kinds) - 1))
        rows, losses = _per_task_heads([model], [batches[task]])
        loss, stack = task_loss_and_gradient(model, batches[task])
        got_rows, got_losses = stack.rows, [loss]
    elif entry == "joint_gradient":
        rows, losses = _per_task_heads([model] * len(kinds), batches)
        stack, got_losses = joint_gradient(model, batches)
        got_rows = stack.rows
    else:
        models = stack_copies(model)
        params = models[0].params.base
        params += 0.1 * Rng(seed).standard_normal(params.shape)  # each model its own point
        adapters = [tuple(params[:, model.layout.blocks[f"L{i}.{role}"][0]].reshape(
                        len(kinds), *model.layout.blocks[f"L{i}.{role}"][1]) for role in "AB")
                    for i in range(model.num_layers)]
        rows, losses = _per_task_heads(models, batches, adapters)
        got_rows, got_losses = stacked_gradient(models, batches)
    assert np.array_equal(got_rows, rows)
    assert got_losses == losses
