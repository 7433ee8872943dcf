"""A stack's step through its reused buffers against the step written with
fresh arrays (``helpers.fresh_*``, the bodies the buffers replaced), bit for
bit: rows, losses, Gram matrices, projection, update and the parameters after
AdamW, over several steps whose batch size may change between steps."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fresh_gradient_rows,
    fresh_group_grams,
    fresh_merge,
    fresh_surgery,
    random_batch,
    random_model,
    shuffle,
    step_batch,
)

from ortho_lora.config import FLAT, JOINT, ORTHO_STRUCTURED, PER_MATRIX, PER_ROLE_CONCAT
from ortho_lora.dense import Rng, same_bits
from ortho_lora.model import CLASSIFICATION, REGRESSION, GradientStack, joint_gradient, stack_runs
from ortho_lora.optim import AdamWState, adamw_step
from ortho_lora.surgery import surgery
from ortho_lora.trainer import train_step


def fresh_step(stack, batch, opt_state, lr, scope, order, project):
    """train_step on stack written with fresh arrays; returns the losses, rows,
    Gram matrices and the (projected) rows merge read."""
    base = stack.models[0]
    rows, losses = fresh_gradient_rows(base, batch, stack.heads, stack.adapters)
    grads = GradientStack(stack.task_ids, rows, base.layout)
    grams = None
    if scope is not None:
        grams = fresh_group_grams(grads, scope)
        if project:
            grads = fresh_surgery(grads, scope, order, grams)
    adamw_step(stack.matrix, fresh_merge(grads), opt_state, lr)
    return losses, rows, grams, grads.rows


@settings(max_examples=80, deadline=None)
@given(depth=st.integers(1, 3), kinds=st.lists(st.sampled_from([REGRESSION, CLASSIFICATION]),
                                               min_size=1, max_size=4),
       one_run=st.booleans(), scope=st.sampled_from([None, FLAT, PER_MATRIX, PER_ROLE_CONCAT]),
       project=st.booleans(), sizes=st.lists(st.integers(1, 9), min_size=2, max_size=4),
       seed=st.integers(0, 2**16))
def test_buffered_steps_equal_fresh_array_steps(depth, kinds, one_run, scope, project, sizes, seed):
    dims = (6, 5, 4, 3)[:depth + 1]
    model = random_model(seed, layer_dims=dims, rank=2, alpha=16.0 / 3, kinds=kinds,
                         randomize_b=True)
    runs = 1 if one_run else len(kinds)
    stack, ref = stack_runs(model, runs), stack_runs(model, runs)
    noise = 0.1 * Rng(seed).standard_normal(stack.matrix.shape)  # each run its own point
    stack.matrix += noise
    ref.matrix += noise
    opt_state, ref_state = AdamWState(), AdamWState()
    mode = ORTHO_STRUCTURED if project else JOINT
    groups = len(stack.models[0].layout.groups(scope)) if scope else 0
    for s, n in enumerate(sizes):
        batch = step_batch(model, [random_batch(model, t, n, seed=seed + 97 * s + t)
                                   for t in range(len(kinds))])
        order = shuffle(seed + s, len(kinds))
        lr = 0.01 * (1.0 - s / len(sizes))
        grams = np.empty((groups, len(kinds), len(kinds)))
        losses = train_step(mode, stack, batch, opt_state, lr, scope, grams, order)
        want_losses, want_rows, want_grams, want_merged = fresh_step(
            ref, batch, ref_state, lr, scope, order, project)
        step = stack.step
        assert step.shape == batch.x.shape  # rebuilt when the batch size changed
        assert losses == want_losses
        assert same_bits(step.grads.rows, want_rows), f"step {s}"
        if scope is not None:
            assert same_bits(grams, want_grams)
            if project:
                assert same_bits(step.projected.rows, want_merged)
        assert same_bits(stack.matrix, ref.matrix), f"step {s}"


@settings(max_examples=40, deadline=None)
@given(kinds=st.lists(st.sampled_from([REGRESSION, CLASSIFICATION]), min_size=2, max_size=4),
       scope=st.sampled_from([FLAT, PER_MATRIX, PER_ROLE_CONCAT]), n=st.integers(1, 9),
       seed=st.integers(0, 2**16))
def test_surgery_into_the_step_buffers_leaves_its_input_rows_unchanged(kinds, scope, n, seed):
    model = random_model(seed, kinds=kinds, randomize_b=True)
    stack = stack_runs(model, 1)
    grads, _ = joint_gradient(stack, step_batch(model, [random_batch(model, t, n, seed=seed + t)
                                                        for t in range(len(kinds))]))
    grams = fresh_group_grams(grads, scope)
    kept = grads.rows.copy()
    out = surgery(grads, scope, shuffle(seed, len(kinds)), grams, out=stack.step.projected)
    assert out is stack.step.projected and not np.shares_memory(out.rows, grads.rows)
    assert same_bits(grads.rows, kept)
    assert same_bits(out.rows, fresh_surgery(grads, scope, shuffle(seed, len(kinds)), grams).rows)


def test_a_batch_of_another_shape_rebuilds_the_step_buffers():
    # views of the old buffers must not survive: the new step's rows are its own
    model = random_model(7, layer_dims=(6, 5, 4), kinds=[REGRESSION, CLASSIFICATION],
                         randomize_b=True)
    stack = stack_runs(model, 1)
    first = joint_gradient(stack, step_batch(model, [random_batch(model, t, 3, seed=t)
                                                     for t in range(2)]))[0]
    batch = step_batch(model, [random_batch(model, t, 5, seed=10 + t) for t in range(2)])
    grads, losses = joint_gradient(stack, batch)
    assert grads is not first and stack.step.shape == (2, 6, 5)
    want_rows, want_losses = fresh_gradient_rows(model, batch, stack.heads, stack.adapters)
    assert same_bits(grads.rows, want_rows) and losses == want_losses
    assert joint_gradient(stack, batch)[0] is grads
