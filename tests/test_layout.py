"""The flat parameter vector and the (T, A + o*d) gradient rows share one layout:
a row holds the adapter columns, then its own task's head."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fd_gradient,
    padded_update,
    predict,
    random_batch,
    random_model,
    step_batch,
    step_outs,
)

from ortho_lora.dense import Rng
from ortho_lora.errors import ParameterError, ShapeError
from ortho_lora.model import (
    CLASSIFICATION,
    FLAT,
    PER_MATRIX,
    PER_ROLE_CONCAT,
    REGRESSION,
    GradientStack,
    Layout,
    build_model,
    joint_gradient,
    stack_runs,
    task_loss_and_gradient,
)
from ortho_lora.surgery import merge, scope_groups


def test_every_block_is_a_view_into_params():
    model = random_model(0, layer_dims=(6, 5, 4), randomize_b=True)
    blocks = model.layout.blocks
    views = ([layer.adapter.a for layer in model.layers] + [layer.adapter.b for layer in model.layers]
             + [model.heads, *model.heads])
    assert all(np.shares_memory(view, model.params) for view in views)
    named = ([(f"L{i}.A", layer.adapter.a) for i, layer in enumerate(model.layers)]
             + [(f"L{i}.B", layer.adapter.b) for i, layer in enumerate(model.layers)]
             + [(f"HEAD{t}", head) for t, head in enumerate(model.heads)])
    assert [name for name, _ in named] == list(blocks)
    for name, view in named:
        sl, shape = blocks[name]
        assert view.shape == shape
        assert np.array_equal(view.ravel(), model.params[sl])
    assert sum(sl.stop - sl.start for sl, _ in blocks.values()) == model.params.size


def test_fd_perturbation_reaches_predict():
    model = random_model(2, randomize_b=True)
    x = Rng(3).standard_normal((model.in_dim, 4))
    base = predict(model, 0, x)
    for name in ("L1.A", "L0.B", "HEAD0"):
        start = model.layout.blocks[name][0].start
        saved = model.params[start]
        model.params[start] = saved + 0.1
        assert not np.array_equal(predict(model, 0, x), base), name
        model.params[start] = saved
    assert np.array_equal(predict(model, 0, x), base)
    # fd_gradient perturbs params the same way, so it sees the analytic gradient
    batch = random_batch(model, 0, 4, seed=4)
    analytic = task_loss_and_gradient(model, batch)[1][0].blocks["L0.A"]
    fd = fd_gradient(model, batch, "L0.A", h=1e-5)
    assert np.abs(fd).max() > 0
    assert np.abs(fd - analytic).max() < 1e-5 * np.abs(analytic).max()


def test_stack_rows_hold_adapters_and_own_head():
    model = random_model(5, kinds=[REGRESSION, CLASSIFICATION, REGRESSION], randomize_b=True)
    batches = [random_batch(model, t, 4, seed=t) for t in range(3)]
    stack = joint_gradient(stack_runs(model, 1), step_batch(model, batches))
    singles = [task_loss_and_gradient(model, b)[1] for b in batches]
    adapter_cols = model.layout.heads.start
    width = adapter_cols + model.out_dim * 4
    assert stack.rows.shape == (3, width)
    adapter_names = [name for name in model.layout.blocks if not name.startswith("HEAD")]
    for t in range(3):
        assert singles[t].rows.shape == (1, width)
        for grads in (stack, singles[t]):
            grad = grads[0 if grads is singles[t] else t]
            assert list(grad.blocks) == adapter_names + [f"HEAD{t}"]
            head = grad.blocks[f"HEAD{t}"]
            assert head.shape == (model.out_dim, 4) and np.any(head)
            assert np.shares_memory(head, grads.rows[:, adapter_cols:])
    # merge puts each row's head into its task's columns of the flat layout,
    # and a one-task row's update holds its own head alone
    heads = merge(stack, step_outs(stack).update)[0, model.layout.heads].reshape(3, -1)
    assert np.array_equal(heads, stack.rows[:, adapter_cols:])
    one = padded_update(singles[1])[model.layout.heads].reshape(3, -1)
    assert np.array_equal(one[1], singles[1].rows[0, adapter_cols:])
    assert not np.any(one[[0, 2]])


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(st.integers(2, 6), min_size=2, max_size=4),
       num_tasks=st.integers(1, 16), out_dim=st.integers(1, 4), data=st.data())
def test_scope_group_slices_cover_exactly_their_blocks(dims, num_tasks, out_dim, data):
    rank = data.draw(st.integers(1, min(dims)))
    model = build_model(dims, rank, 2.0, 0.1, [REGRESSION] * num_tasks, out_dim, Rng(0))
    layout = model.layout
    layers = range(len(dims) - 1)
    adapter_cols = sum(layer.adapter.a.size + layer.adapter.b.size for layer in model.layers)
    assert layout.heads == slice(adapter_cols, model.params.size)
    assert layout.head_shape == (out_dim, dims[-1])
    stack = GradientStack(list(range(num_tasks)),
                          np.zeros((num_tasks, adapter_cols + out_dim * dims[-1])), layout)
    labels = {FLAT: ["flat"], PER_MATRIX: [f"L{i}.{role}" for i in layers for role in "AB"],
              PER_ROLE_CONCAT: ["A", "B"]}
    for scope, want_labels in labels.items():
        groups = layout.groups(scope)
        # the labels in the order the conflict report writes them
        assert [label for label, _ in groups] == want_labels
        # the groups tile the adapter columns [0, heads.start): no gap, no overlap, no head
        spans = sorted((cols.start, cols.stop) for _, cols in groups)
        assert spans[0][0] == 0 and spans[-1][1] == layout.heads.start
        assert all(stop == start for (_, stop), (start, _) in zip(spans, spans[1:]))
        # scope_groups names exactly the blocks whose columns lie inside each group
        for (label, cols), (named_label, names) in zip(groups, scope_groups(stack[0], scope)):
            assert named_label == label
            inside = [name for name, (sl, _) in layout.blocks.items()
                      if cols.start <= sl.start and sl.stop <= cols.stop]
            assert names == inside and names
            assert not any(name.startswith("HEAD") for name in names)
            # disjoint blocks inside the group that add up to its width fill it
            widths = [layout.blocks[name][0].stop - layout.blocks[name][0].start for name in names]
            assert sum(widths) == cols.stop - cols.start
    with pytest.raises(ParameterError, match="unknown projection scope"):
        layout.groups("BOGUS")


@settings(max_examples=80, deadline=None)
@given(num_tasks=st.integers(1, 16), dims=st.lists(st.integers(1, 5), min_size=2, max_size=4),
       out_dim=st.integers(1, 4), data=st.data())
def test_merge_equals_zero_padded_row_sum_bit_for_bit(num_tasks, dims, out_dim, data):
    # every task in order; signed zeros, ties and large entries. Rows of
    # one-head runs are their update as they are
    rank = data.draw(st.integers(1, min(dims)))
    shapes = ([(rank, k) for k in dims[:-1]], [(d, rank) for d in dims[1:]], (out_dim, dims[-1]))
    layout = Layout(*shapes, num_tasks)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((num_tasks, layout.heads.start + out_dim * dims[-1]))
    rows *= 10.0 ** rng.integers(-300, 300, rows.shape)
    rows[rng.random(rows.shape) < 0.2] = 0.0
    rows[rng.random(rows.shape) < 0.2] = -0.0
    if data.draw(st.booleans()):
        rows = np.round(rows)
    ids = list(range(num_tasks))
    assert merge(GradientStack(ids, rows, Layout(*shapes, 1)), None) is rows
    if num_tasks > 1:
        grads = GradientStack(ids, rows, layout)
        assert merge(grads, step_outs(grads).update).tobytes() == padded_update(grads).tobytes()
        # any other subset or order of the tasks is no stack's update
        other = data.draw(st.permutations(ids))[:data.draw(st.integers(1, num_tasks))]
        if other != ids:
            with pytest.raises(ShapeError, match="merge: rows of tasks"):
                merge(GradientStack(other, rows[:len(other)], layout), step_outs(grads).update)


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from([REGRESSION, CLASSIFICATION]), min_size=1, max_size=16),
       dims=st.lists(st.integers(2, 6), min_size=2, max_size=4), out_dim=st.integers(2, 4),
       data=st.data())
def test_merge_of_model_gradients_equals_zero_padded_row_sum(kinds, dims, out_dim, data):
    # 1-3 layers, mixed kinds: every task's rows from joint_gradient; a one-row
    # stack of task_loss_and_gradient is no stack's update unless the model
    # has one task
    seed = data.draw(st.integers(0, 2**16))
    model = random_model(seed, layer_dims=dims, rank=min(2, *dims), kinds=kinds,
                         out_dim=out_dim, randomize_b=True)
    batches = [random_batch(model, t, 5, seed=seed + 1 + t) for t in range(len(kinds))]
    task = data.draw(st.integers(0, len(kinds) - 1))
    grads = joint_gradient(stack_runs(model, 1), step_batch(model, batches))
    assert grads.rows.shape[1] == model.layout.heads.start + out_dim * dims[-1]
    one = task_loss_and_gradient(model, batches[task])[1]
    if len(kinds) == 1:
        assert merge(grads, None) is grads.rows and merge(one, None) is one.rows
    else:
        assert merge(grads, step_outs(grads).update).tobytes() == padded_update(grads).tobytes()
        with pytest.raises(ShapeError, match="merge: rows of tasks"):
            merge(one, step_outs(one).update)
