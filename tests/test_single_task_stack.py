"""SINGLE_TASK's stacked step against one model and one AdamW step at a time.

``stack_runs(base, T)`` makes T one-head runs, run t holding the adapters
and task t's head alone, whose parameters are the rows of one (T, A + o*d)
matrix, and ``train_step`` moves them all with one batched forward and
backward pass and one AdamW step. The reference below is the plain loop:
T full copies of the model, each with every task's head, its own
``task_loss_and_gradient`` and its own ``adamw_step``. The two must agree
bit for bit on everything a run holds. The stack constructor's own
property test is here too.
"""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import own_copy, padded_update, random_batch, random_model, step_batch, step_losses

from ortho_lora.config import SINGLE_TASK
from ortho_lora.errors import ParameterError
from ortho_lora.model import (
    CLASSIFICATION,
    REGRESSION,
    MultiTaskModel,
    stack_runs,
    task_loss_and_gradient,
)
from ortho_lora.optim import AdamWHyper, AdamWState, adamw_step
from ortho_lora.trainer import train_step

STEPS = 4


def _kinds(num_tasks, mixed):
    if not mixed:
        return [REGRESSION] * num_tasks
    return [(REGRESSION, CLASSIFICATION, REGRESSION)[t % 3] for t in range(num_tasks)]


def _batches(model, step, n=8):
    return [random_batch(model, t, n, seed=1000 * step + t) for t in range(model.num_tasks)]


def _reference(base, hyper, steps):
    """Per-model loop: the task's own gradient and its own AdamW state."""
    models = [own_copy(base) for _ in range(base.num_tasks)]
    states = [AdamWState(hyper=hyper) for _ in models]
    losses = []
    for step in range(steps):
        row = []
        for b in _batches(base, step):
            model = models[b.task_id]
            loss, grads = task_loss_and_gradient(model, b)
            adamw_step(model.params, padded_update(grads), states[b.task_id], 0.01 * (1 + step))
            row.append(loss)
        losses.append(row)
    return models, losses


def _row_width(model):
    return model.layout.heads.start + model.heads[0].size


def _own_part(model, task_id):
    """What the stacked model of task task_id holds: the adapters, then its head."""
    return np.concatenate((model.params[:model.layout.heads.start], model.heads[task_id].ravel()))


def _stacked(base, hyper, steps):
    stack = stack_runs(base, base.num_tasks)
    state = AdamWState(hyper=hyper)
    losses = []
    for step in range(steps):
        batch = step_batch(base, _batches(base, step))
        train_step(SINGLE_TASK, stack, batch, state, 0.01 * (1 + step))
        losses.append(step_losses(stack, batch))
        assert len(losses[-1]) == base.num_tasks
    # the stack and both AdamW moments hold one row of A + o*d columns per run
    shape = (base.num_tasks, _row_width(base))
    assert stack.matrix.shape == state.m.shape == state.v.shape == shape
    return stack.models, losses


@pytest.mark.parametrize("num_tasks", [1, 3, 16])
@pytest.mark.parametrize("layer_dims", [(6, 5), (6, 5, 4), (7, 6, 5, 4)], ids=["1L", "2L", "3L"])
@pytest.mark.parametrize("mixed", [False, True], ids=["regression", "mixed"])
@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_stacked_step_matches_per_model_loop(num_tasks, layer_dims, mixed, weight_decay):
    base = random_model(num_tasks, layer_dims=layer_dims, rank=2,
                        kinds=_kinds(num_tasks, mixed), out_dim=4, randomize_b=True)
    hyper = AdamWHyper(weight_decay=weight_decay)
    want_models, want_losses = _reference(base, hyper, STEPS)
    got_models, got_losses = _stacked(base, hyper, STEPS)
    assert got_losses == want_losses
    for t, (got, want) in enumerate(zip(got_models, want_models)):
        assert np.array_equal(got.params, _own_part(want, t)), f"model {t}"
        assert got.backward_passes == want.backward_passes == STEPS


def test_models_are_views_into_one_stack():
    base = random_model(6, kinds=_kinds(3, mixed=True))
    stack = stack_runs(base, 3)
    models, matrix = stack.models, stack.matrix
    assert matrix.shape == (3, _row_width(base))
    for t, model in enumerate(models):
        assert model.params.base is matrix
        assert np.shares_memory(model.params, matrix[t])
        assert np.array_equal(model.params, _own_part(base, t))
        for layer in model.layers:
            assert np.shares_memory(layer.adapter.a, matrix[t])
            assert np.shares_memory(layer.adapter.b, matrix[t])
        # one head, task t's, and its kind: no other task's head rides along
        assert model.heads.shape == (1, base.out_dim, 4)
        assert model.kinds == [base.kinds[t]]
        assert np.shares_memory(model.heads, matrix[t])
    # the runs share one one-task Layout, the one a copy would build alone
    alone = MultiTaskModel(base.layers, base.heads[:1], base.kinds[:1]).layout
    assert all(model.layout is models[0].layout for model in models)
    assert models[0].layout.blocks == alone.blocks and models[0].layout.num_tasks == 1
    # a step moves each run through its row, and the base stays put
    before = base.params.copy()
    train_step(SINGLE_TASK, stack, step_batch(base, _batches(base, 0)), AdamWState(), 0.01)
    assert np.array_equal(base.params, before)
    for t, model in enumerate(models):
        assert not np.array_equal(model.params, before)
        assert np.array_equal(model.params, matrix[t])


def test_copies_share_one_stack_of_views():
    base = random_model(9, kinds=_kinds(3, mixed=True))
    stack = stack_runs(base, 3)
    train_step(SINGLE_TASK, stack, step_batch(base, _batches(base, 0)), AdamWState(), 0.01)
    # the views, built once, still show each run's moved parameters
    for t, model in enumerate(stack.models):
        for (a, b), layer in zip(stack.adapters, model.layers):
            assert np.shares_memory(a, stack.matrix) and np.shares_memory(b, stack.matrix)
            assert np.array_equal(a[t], layer.adapter.a) and np.array_equal(b[t], layer.adapter.b)
        assert np.shares_memory(stack.heads, stack.matrix)
        assert np.array_equal(stack.heads[t], model.heads[0])


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from([REGRESSION, CLASSIFICATION]), min_size=1, max_size=8),
       depth=st.integers(1, 3), one_run=st.booleans(), other=st.integers(-1, 9),
       seed=st.integers(0, 2**16))
def test_stack_rows_are_its_runs_and_its_views_share_them(kinds, depth, one_run, other, seed):
    # one run of every head (JOINT, ORTHO) or one run per head (SINGLE_TASK),
    # on mixed kinds and 1-3 layers; no other count of runs makes a stack
    base = random_model(seed, layer_dims=(6, 5, 4, 3)[:depth + 1], kinds=kinds, randomize_b=True)
    num_tasks = len(kinds)
    runs = 1 if one_run else num_tasks
    stack = stack_runs(base, runs)
    per_run = num_tasks // runs
    assert len(stack.models) == runs
    for r, model in enumerate(stack.models):
        # the very memory of row r, not a copy of it
        assert model.params.__array_interface__ == stack.matrix[r].__array_interface__
        assert np.array_equal(model.params[:base.layout.heads.start],
                              base.params[:base.layout.heads.start])
        assert model.kinds == base.kinds[r * per_run:(r + 1) * per_run]
    for i, (a, b) in enumerate(stack.adapters):
        assert a.shape == (runs, *base.layers[i].adapter.a.shape)
        assert b.shape == (runs, *base.layers[i].adapter.b.shape)
        assert np.shares_memory(a, stack.matrix) and np.shares_memory(b, stack.matrix)
        for r, model in enumerate(stack.models):
            assert np.shares_memory(a[r], model.params) and np.shares_memory(b[r], model.params)
            assert np.array_equal(a[r], base.layers[i].adapter.a)
            assert np.array_equal(b[r], base.layers[i].adapter.b)
    assert stack.heads.shape == base.heads.shape
    assert np.shares_memory(stack.heads, stack.matrix)
    for t in range(num_tasks):
        assert np.array_equal(stack.heads[t], base.heads[t])
        assert np.shares_memory(stack.heads[t], stack.models[t // per_run].params)
    if other not in (1, num_tasks):
        with pytest.raises(ParameterError, match=f"1 or {num_tasks} runs, not {other}"):
            stack_runs(base, other)


# a step's batches reach train_step as the StepBatch a run gathers for the
# stack's base; step_batch builds it as a run checks its train pool, so a
# bad list is rejected before any run moves
@pytest.mark.parametrize("task_ids", [[0, 2], [0, 0, 1], [0, 1, 1, 2]],
                         ids=["missing", "repeated", "extra"])
def test_batch_list_must_hold_each_task_once(task_ids):
    base = random_model(7, kinds=_kinds(3, mixed=True))
    stack = stack_runs(base, 3)
    before = stack.matrix.copy()
    batches = [random_batch(base, t, 8, seed=i) for i, t in enumerate(task_ids)]
    with pytest.raises(ParameterError, match="one batch per task"):
        train_step(SINGLE_TASK, stack, step_batch(base, batches), AdamWState(), 0.01)
    assert np.array_equal(stack.matrix, before)


def test_unequal_batch_sizes_rejected():
    base = random_model(9, kinds=_kinds(3, mixed=False))
    stack = stack_runs(base, 3)
    before = stack.matrix.copy()
    batches = [random_batch(base, t, 8 + t, seed=t) for t in range(3)]
    with pytest.raises(ParameterError, match="equal batch sizes"):
        train_step(SINGLE_TASK, stack, step_batch(base, batches), AdamWState(), 0.01)
    assert np.array_equal(stack.matrix, before)
