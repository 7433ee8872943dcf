"""The flat parameter vector and the (T, P) gradient rows share one layout."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_gradient, random_batch, random_model

from ortho_lora import (
    CLASSIFICATION,
    FLAT,
    PER_MATRIX,
    PER_ROLE_CONCAT,
    REGRESSION,
    BlockId,
    GradientStack,
    Rng,
    build_model,
    joint_gradient,
    predict,
    task_loss_and_gradient,
)
from ortho_lora.surgery import _group_columns, scope_groups


def test_every_block_is_a_view_into_params():
    model = random_model(0, layer_dims=(6, 5, 4), randomize_b=True)
    views = ([layer.adapter.a for layer in model.layers] + [layer.adapter.b for layer in model.layers]
             + [model.heads, *model.heads] + list(model.trainable_blocks().values())
             + [model.block(bid) for bid in model.layout])
    assert all(np.shares_memory(view, model.params) for view in views)
    for bid, (sl, shape) in model.layout.items():
        assert model.block(bid).shape == shape
        assert np.array_equal(model.block(bid).ravel(), model.params[sl])
    assert sum(sl.stop - sl.start for sl, _ in model.layout.values()) == model.params.size


def test_copy_owns_its_buffer():
    model = random_model(1, randomize_b=True)
    before = model.params.copy()
    twin = model.copy()
    assert not np.shares_memory(twin.params, model.params)
    assert np.array_equal(twin.params, before)
    twin.layers[0].adapter.b[...] += 1.0
    twin.heads[1][...] = 0.0
    twin.params[0] += 1.0
    assert np.array_equal(model.params, before)
    assert np.shares_memory(twin.heads[1], twin.params)


def test_fd_perturbation_reaches_predict():
    model = random_model(2, randomize_b=True)
    x = Rng(3).standard_normal((model.in_dim, 4))
    base = predict(model, 0, x)
    for bid in (BlockId("A", 1), BlockId("B", 0), BlockId("HEAD", 0)):
        start = model.layout[bid][0].start
        saved = model.params[start]
        model.params[start] = saved + 0.1
        assert not np.array_equal(predict(model, 0, x), base), bid
        model.params[start] = saved
    assert np.array_equal(predict(model, 0, x), base)
    # fd_gradient perturbs params the same way, so it sees the analytic gradient
    batch = random_batch(model, 0, 4, seed=4)
    analytic = task_loss_and_gradient(model, batch)[1][0].blocks[BlockId("A", 0)]
    fd = fd_gradient(model, batch, BlockId("A", 0), h=1e-5)
    assert np.abs(fd).max() > 0
    assert np.abs(fd - analytic).max() < 1e-5 * np.abs(analytic).max()


def test_stack_rows_are_zero_in_other_tasks_heads():
    model = random_model(5, kinds=[REGRESSION, CLASSIFICATION, REGRESSION], randomize_b=True)
    batches = [random_batch(model, t, 4, seed=t) for t in range(3)]
    stack, _ = joint_gradient(model, batches)
    singles = [task_loss_and_gradient(model, b)[1] for b in batches]
    assert stack.rows.shape == (3, model.params.size)
    for t in range(3):
        for row in (stack.rows[t], singles[t].rows[0]):
            for u in range(3):
                head = row[model.layout[BlockId("HEAD", u)][0]]
                assert np.any(head) == (u == t), (t, u)


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(st.integers(2, 6), min_size=2, max_size=4),
       num_tasks=st.integers(1, 3), out_dim=st.integers(1, 4), data=st.data())
def test_scope_group_slices_cover_exactly_their_blocks(dims, num_tasks, out_dim, data):
    rank = data.draw(st.integers(1, min(dims)))
    model = build_model(dims, rank, 2.0, 0.1, [REGRESSION] * num_tasks, out_dim, Rng(0))
    stack = GradientStack(list(range(num_tasks)), np.zeros((num_tasks, model.params.size)),
                          model.layout)
    for scope in (FLAT, PER_MATRIX, PER_ROLE_CONCAT):
        groups = scope_groups(stack[0], scope)
        columns = _group_columns(stack, scope)
        assert [label for label, _ in groups] == [label for label, _ in columns]
        covered = []
        for (_, bids), (_, cols) in zip(groups, columns):
            want = [i for b in bids for i in range(model.layout[b][0].start, model.layout[b][0].stop)]
            assert list(range(cols.start, cols.stop)) == want
            covered += want
        assert sorted(covered) == list(range(model.adapter_param_count()))
