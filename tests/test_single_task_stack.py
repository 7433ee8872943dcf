"""SINGLE_TASK's stacked step against one model and one AdamW step at a time.

``stack_copies`` makes T one-task models, model t holding the adapters and
task t's head alone, whose parameters are the rows of one (T, A + o*d)
matrix, and ``train_step`` moves them all with one batched forward and
backward pass and one AdamW step. The reference below is the plain loop:
T full copies of the model, each with every task's head, its own
``task_loss_and_gradient`` and its own ``adamw_step``. The two must agree
bit for bit on everything a stacked model holds.
"""

import numpy as np
import pytest

from helpers import own_copy, random_batch, random_model, step_batch

from ortho_lora.config import SINGLE_TASK
from ortho_lora.dense import Rng
from ortho_lora.errors import ParameterError
from ortho_lora.model import (
    CLASSIFICATION,
    REGRESSION,
    MultiTaskModel,
    stack_copies,
    task_loss_and_gradient,
)
from ortho_lora.optim import AdamWHyper, AdamWState, adamw_step
from ortho_lora.surgery import merge
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
            adamw_step(model.params, merge(grads), states[b.task_id], 0.01 * (1 + step))
            row.append(loss)
        losses.append(row)
    return models, losses


def _row_width(model):
    return model.layout.heads.start + model.heads[0].size


def _own_part(model, task_id):
    """What the stacked model of task task_id holds: the adapters, then its head."""
    return np.concatenate((model.params[:model.layout.heads.start], model.heads[task_id].ravel()))


def _stacked(base, hyper, steps):
    models = stack_copies(base)
    states = [AdamWState(hyper=hyper)]
    losses = []
    for step in range(steps):
        records, report = train_step(SINGLE_TASK, models, step_batch(base, _batches(base, step)),
                                     states, step, 0.01 * (1 + step), Rng(0), None)
        assert report is None
        assert [r.task for r in records] == list(range(base.num_tasks))
        losses.append([r.loss for r in records])
    # the stack and both AdamW moments hold one row of A + o*d columns per model
    shape = (base.num_tasks, _row_width(base))
    assert models[0].params.base.shape == states[0].m.shape == states[0].v.shape == shape
    return models, losses


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
    models = stack_copies(base)
    stack = models[0].params.base
    assert stack.shape == (3, _row_width(base))
    for t, model in enumerate(models):
        assert model.params.base is stack
        assert np.shares_memory(model.params, stack[t])
        assert np.array_equal(model.params, _own_part(base, t))
        for layer in model.layers:
            assert np.shares_memory(layer.adapter.a, stack[t])
            assert np.shares_memory(layer.adapter.b, stack[t])
        # one head, task t's, and its kind: no other task's head rides along
        assert model.heads.shape == (1, base.out_dim, 4)
        assert model.kinds == [base.kinds[t]]
        assert np.shares_memory(model.heads, stack[t])
    # the copies share one one-task Layout, the one a copy would build alone
    alone = MultiTaskModel(base.layers, base.heads[:1], base.kinds[:1]).layout
    assert all(model.layout is models[0].layout for model in models)
    assert models[0].layout.blocks == alone.blocks and models[0].layout.num_tasks == 1
    # a step moves each model through its row, and the base stays put
    before = base.params.copy()
    train_step(SINGLE_TASK, models, step_batch(base, _batches(base, 0)), [AdamWState()], 0, 0.01,
               Rng(0), None)
    assert np.array_equal(base.params, before)
    for t, model in enumerate(models):
        assert not np.array_equal(model.params, before)
        assert np.array_equal(model.params, stack[t])


def test_copies_share_one_stack_of_views():
    base = random_model(9, kinds=_kinds(3, mixed=True))
    models = stack_copies(base)
    stack = models[0].stack
    assert all(model.stack is stack for model in models)
    assert stack.matrix is models[0].params.base
    assert all(row is model.params for row, model in zip(stack.rows, models))
    train_step(SINGLE_TASK, models, step_batch(base, _batches(base, 0)), [AdamWState()], 0, 0.01,
               Rng(0), None)
    # the views, built once, still show each model's moved parameters
    for t, model in enumerate(models):
        for (a, b), layer in zip(stack.adapters, model.layers):
            assert np.shares_memory(a, stack.matrix) and np.shares_memory(b, stack.matrix)
            assert np.array_equal(a[t], layer.adapter.a) and np.array_equal(b[t], layer.adapter.b)
        assert np.shares_memory(stack.heads, stack.matrix)
        assert np.array_equal(stack.heads[t], model.heads[0])


# a step's batches reach train_step as the StepBatch a run gathers for the
# stack's base; step_batch builds it as a run checks its train pool, so a
# bad list is rejected before any model moves
@pytest.mark.parametrize("task_ids", [[0, 2], [0, 0, 1], [0, 1, 1, 2]],
                         ids=["missing", "repeated", "extra"])
def test_batch_list_must_hold_each_task_once(task_ids):
    base = random_model(7, kinds=_kinds(3, mixed=True))
    models = stack_copies(base)
    before = models[0].params.base.copy()
    batches = [random_batch(base, t, 8, seed=i) for i, t in enumerate(task_ids)]
    with pytest.raises(ParameterError, match="one batch per task"):
        train_step(SINGLE_TASK, models, step_batch(base, batches), [AdamWState()], 0, 0.01,
                   Rng(0), None)
    assert np.array_equal(models[0].params.base, before)


@pytest.mark.parametrize("build", [
    lambda base: [own_copy(base) for _ in range(3)],
    lambda base: stack_copies(base)[::-1],
    lambda base: stack_copies(random_model(8, kinds=_kinds(4, mixed=False)))[:3],
], ids=["separate buffers", "rows out of order", "rows of a larger stack"])
def test_models_must_be_the_rows_of_one_stack_in_order(build):
    base = random_model(8, kinds=_kinds(3, mixed=False))
    with pytest.raises(ParameterError, match="parameter stack"):
        train_step(SINGLE_TASK, build(base), step_batch(base, _batches(base, 0)), [AdamWState()],
                   0, 0.01, Rng(0), None)


def test_unequal_batch_sizes_rejected():
    base = random_model(9, kinds=_kinds(3, mixed=False))
    models = stack_copies(base)
    before = models[0].params.base.copy()
    batches = [random_batch(base, t, 8 + t, seed=t) for t in range(3)]
    with pytest.raises(ParameterError, match="equal batch sizes"):
        train_step(SINGLE_TASK, models, step_batch(base, batches), [AdamWState()], 0, 0.01,
                   Rng(0), None)
    assert np.array_equal(models[0].params.base, before)
