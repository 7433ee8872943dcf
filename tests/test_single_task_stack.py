"""SINGLE_TASK's stacked step against one model and one AdamW step at a time.

``stack_copies`` puts the T models' parameters in the rows of one (T, P)
matrix, and ``train_step`` moves them all with one batched forward and
backward pass and one AdamW step. The reference below is the plain loop:
each model's own ``task_loss_and_gradient`` and its own ``adamw_step``. The
two must agree bit for bit.
"""

import numpy as np
import pytest

from helpers import own_copy, random_batch, random_model

from ortho_lora.config import SINGLE_TASK
from ortho_lora.dense import Rng
from ortho_lora.errors import ParameterError
from ortho_lora.model import (
    CLASSIFICATION,
    PER_MATRIX,
    REGRESSION,
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


def _stacked(base, hyper, steps):
    models = stack_copies(base, base.num_tasks)
    states = [AdamWState(hyper=hyper)]
    losses = []
    for step in range(steps):
        # shuffled batch order: the step sorts by task
        batches = _batches(base, step)[::-1]
        records, report = train_step(SINGLE_TASK, models, batches, states, step,
                                     0.01 * (1 + step), Rng(0), PER_MATRIX)
        assert report is None
        assert [r.task for r in records] == list(range(base.num_tasks))
        losses.append([r.loss for r in records])
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
        assert np.array_equal(got.params, want.params), f"model {t}"
        assert got.backward_passes == want.backward_passes == STEPS


def test_models_are_views_into_one_stack():
    base = random_model(6, kinds=_kinds(3, mixed=True))
    models = stack_copies(base, 3)
    stack = models[0].params.base
    assert stack.shape == (3, base.params.size)
    for t, model in enumerate(models):
        assert model.params.base is stack
        assert np.shares_memory(model.params, stack[t])
        assert np.array_equal(model.params, base.params)
        for layer in model.layers:
            assert np.shares_memory(layer.adapter.a, stack[t])
            assert np.shares_memory(layer.adapter.b, stack[t])
        assert model.heads.shape == (3, base.out_dim, 4)
        assert np.shares_memory(model.heads, stack[t])
    # a step moves each model through its row, and the base stays put
    before = base.params.copy()
    train_step(SINGLE_TASK, models, _batches(base, 0), [AdamWState()], 0, 0.01, Rng(0),
               PER_MATRIX)
    assert np.array_equal(base.params, before)
    for t, model in enumerate(models):
        assert not np.array_equal(model.params, before)
        assert np.array_equal(model.params, stack[t])


@pytest.mark.parametrize("task_ids", [[0, 2], [0, 0, 1], [0, 1, 1, 2]],
                         ids=["missing", "repeated", "extra"])
def test_batch_list_must_hold_each_task_once(task_ids):
    base = random_model(7, kinds=_kinds(3, mixed=True))
    models = stack_copies(base, 3)
    before = models[0].params.base.copy()
    batches = [random_batch(base, t, 8, seed=i) for i, t in enumerate(task_ids)]
    with pytest.raises(ParameterError, match="one batch per task"):
        train_step(SINGLE_TASK, models, batches, [AdamWState()], 0, 0.01, Rng(0), PER_MATRIX)
    assert np.array_equal(models[0].params.base, before)


@pytest.mark.parametrize("build", [
    lambda base: [own_copy(base) for _ in range(3)],
    lambda base: stack_copies(base, 3)[::-1],
    lambda base: stack_copies(base, 4)[:3],
], ids=["separate buffers", "rows out of order", "rows of a larger stack"])
def test_models_must_be_the_rows_of_one_stack_in_order(build):
    base = random_model(8, kinds=_kinds(3, mixed=False))
    with pytest.raises(ParameterError, match="parameter stack"):
        train_step(SINGLE_TASK, build(base), _batches(base, 0), [AdamWState()], 0, 0.01,
                   Rng(0), PER_MATRIX)


def test_unequal_batch_sizes_rejected():
    base = random_model(9, kinds=_kinds(3, mixed=False))
    batches = [random_batch(base, t, 8 + t, seed=t) for t in range(3)]
    with pytest.raises(ParameterError, match="equal batch sizes"):
        train_step(SINGLE_TASK, stack_copies(base, 3), batches, [AdamWState()], 0, 0.01,
                   Rng(0), PER_MATRIX)
