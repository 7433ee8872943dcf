"""The one gradient path: joint_gradient's rows against the one-task-at-a-time
gradient, on a stack of one run and on a stack of one-head runs, the
batched heads against a per-task head loop, the loss step and the adapter
rescale against the forms they replaced, and the batch checks that
task_loss_and_gradient and EvalPool.of share with a run's check of its
train pool."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fresh_backprop,
    fresh_forward,
    generator,
    per_block_gradient_rows,
    random_batch,
    random_model,
    scatter_losses,
    step_batch,
    step_losses,
)

from ortho_lora.adapter import FrozenLayer, init_adapter
from ortho_lora.dense import Rng
from ortho_lora.errors import NumericError, ParameterError, ShapeError
from ortho_lora.model import (
    CLASSIFICATION,
    REGRESSION,
    EvalPool,
    MultiTaskModel,
    TaskBatch,
    _output_gradient,
    _stacked_targets,
    joint_gradient,
    stack_runs,
    task_loss_and_gradient,
    window_losses,
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
    runs, step = stack_runs(model, 1), step_batch(model, batches)
    stack = joint_gradient(runs, step)
    losses = step_losses(runs, step)
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
    runs, step = stack_runs(model, 1), step_batch(model, batches)
    stack = joint_gradient(runs, step)
    losses = step_losses(runs, step)
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
    # T one-head runs of one model hold its adapters and their task's head:
    # they give the rows of its one run bit for bit
    model = random_model(60, layer_dims=layer_dims, rank=3, kinds=_mixed_kinds(num_tasks),
                         out_dim=4, randomize_b=True)
    batches = [random_batch(model, t, 5, seed=200 + t) for t in range(num_tasks)]
    one_run, step = stack_runs(model, 1), step_batch(model, batches)
    stack = joint_gradient(one_run, step)
    joint_losses = step_losses(one_run, step)
    runs = stack_runs(model, num_tasks)
    adapters = model.params[:model.layout.heads.start]
    assert all(np.array_equal(m.params, np.concatenate((adapters, model.heads[t].ravel())))
               for t, m in enumerate(runs.models))
    rows = joint_gradient(runs, step)
    assert np.array_equal(rows.rows, stack.rows)
    assert step_losses(runs, step) == joint_losses


def _entry_call(entry, model, batches):
    """The models an entry point touches, and a call of it on batches;
    "stacked_gradient" is joint_gradient on a stack of one-head runs, as
    SINGLE_TASK trains."""
    if entry == "task_loss_and_gradient":
        return [model], lambda: task_loss_and_gradient(model, batches[0])
    if entry == "EvalPool.of":
        return [model], lambda: EvalPool.of(batches, model)
    stack = stack_runs(model, 1 if entry == "joint_gradient" else model.num_tasks)
    return stack.models, lambda: joint_gradient(stack, step_batch(model, batches))


# the entry points that check their batches; a run checks its train pool the
# same way (check_train), so the gradient code trusts a gathered StepBatch
CHECKED = ["task_loss_and_gradient", "EvalPool.of"]
# and joint_gradient on both kinds of stack, which takes a StepBatch built by
# step_batch: a bad batch never reaches it, since _stacked_targets,
# check_train's check, rejects it first
GATHERED = ["joint_gradient", "stacked_gradient"]


@pytest.mark.parametrize("entry", ["EvalPool.of", *GATHERED])
def test_unequal_batch_sizes_rejected(entry):
    model = random_model(50, layer_dims=(6, 5, 4), rank=2, randomize_b=True)
    batches = [random_batch(model, 0, 3, seed=1), random_batch(model, 1, 7, seed=2)]
    models, call = _entry_call(entry, model, list(reversed(batches)))
    with pytest.raises(ParameterError, match="equal batch sizes"):
        call()
    assert [m.backward_passes for m in models] == [0] * len(models)


@pytest.mark.parametrize("entry", CHECKED + GATHERED)
def test_empty_batch_rejected(entry):
    # one batch cannot differ in size from itself; the T = 1 path shares this check
    model = random_model(50, layer_dims=(6, 5, 4), rank=2, randomize_b=True)
    batches = [random_batch(model, 0, 0, seed=1), random_batch(model, 1, 0, seed=2)]
    models, call = _entry_call(entry, model, batches)
    with pytest.raises(ParameterError, match="at least one example"):
        call()
    assert [m.backward_passes for m in models] == [0] * len(models)


@pytest.mark.parametrize("entry", CHECKED + GATHERED)
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


@pytest.mark.parametrize("entry", CHECKED)
def test_unknown_task_kind_rejected(entry):
    model = random_model(50, layer_dims=(6, 5, 4), rank=2, kinds=["ranking", REGRESSION])
    models, call = _entry_call(entry, model, [random_batch(model, t, 5, seed=1 + t)
                                              for t in range(2)])
    with pytest.raises(ParameterError, match="unknown task kind 'ranking'"):
        call()


@pytest.mark.parametrize("entry", ["task_loss_and_gradient", "joint_gradient",
                                   "stacked_gradient"])
def test_non_finite_head_output_names_the_task(entry):
    model = random_model(51, layer_dims=(6, 5, 4), rank=2,
                         kinds=[REGRESSION, CLASSIFICATION, REGRESSION], randomize_b=True)
    model.heads[2][0, 0] = np.nan
    batches = [random_batch(model, t, 5, seed=1 + t) for t in (2, 0, 1)]
    models, call = _entry_call(entry, model, batches)
    with pytest.raises(NumericError, match="non-finite activations at head 2$"):
        call()
    assert [m.backward_passes for m in models] == [0] * len(models)


@pytest.mark.parametrize("entry", ["joint_gradient", "stacked_gradient"])
def test_rows_hold_until_the_next_step_on_their_stack(entry):
    # a stack's steps write one set of rows: the next call on the stack
    # overwrites them, and a call on another stack leaves them as they are
    model = random_model(52, layer_dims=(6, 5, 4), rank=2,
                         kinds=[REGRESSION, CLASSIFICATION, REGRESSION], randomize_b=True)
    steps = [step_batch(model, [random_batch(model, t, 5, seed=10 * s + t) for t in range(3)])
             for s in range(2)]
    runs = 1 if entry == "joint_gradient" else 3
    stack = stack_runs(model, runs)
    kept = joint_gradient(stack, steps[0])
    first = kept.rows.copy()
    other = joint_gradient(stack_runs(model, runs), steps[1])
    assert not np.shares_memory(other.rows, kept.rows) and np.array_equal(kept.rows, first)
    assert joint_gradient(stack, steps[1]) is kept
    assert np.array_equal(kept.rows, other.rows) and not np.array_equal(kept.rows, first)


def _per_task_heads(models, ordered, adapters=None):
    """Rows and losses with the heads run one task at a time: the reference for
    the batched head step (same forward and backward, a per-task head loop).
    Row t is the adapter columns, then the head's; a one-task model runs its
    only head."""
    base = models[0]
    features, caches = fresh_forward(base, np.stack([b.x for b in ordered]), adapters)
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
    fresh_backprop(base, caches, delta, rows)
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
        runs, step = stack_runs(model, 1), step_batch(model, batches)
        got_rows, got_losses = joint_gradient(runs, step).rows, step_losses(runs, step)
    else:
        stack = stack_runs(model, len(kinds))
        params = stack.matrix
        params += 0.1 * Rng(seed).standard_normal(params.shape)  # each run its own point
        adapters = [tuple(params[:, model.layout.blocks[f"L{i}.{role}"][0]].reshape(
                        len(kinds), *model.layout.blocks[f"L{i}.{role}"][1]) for role in "AB")
                    for i in range(len(model.layers))]
        rows, losses = _per_task_heads(stack.models, batches, adapters)
        step = step_batch(model, batches)
        got_rows, got_losses = joint_gradient(stack, step).rows, step_losses(stack, step)
    assert np.array_equal(got_rows, rows)
    assert got_losses == losses


_ONE_KIND = st.sampled_from([REGRESSION, CLASSIFICATION]).flatmap(
    lambda kind: st.lists(st.just(kind), min_size=1, max_size=16))
_BOTH_KINDS = st.lists(st.sampled_from([REGRESSION, CLASSIFICATION]), min_size=2,
                       max_size=16).filter(lambda kinds: len(set(kinds)) == 2)


@settings(max_examples=80, deadline=None)
@given(kinds=st.one_of(_ONE_KIND, _BOTH_KINDS), out_dim=st.integers(2, 4),
       n=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_losses_equal_the_scatter_form(kinds, out_dim, n, seed):
    # one kind works in place, mixed kinds scatter: the same bits either way;
    # the step leaves residuals and logits, and the window's losses read them
    rng = generator(seed)
    out = 3.0 * rng.standard_normal((len(kinds), out_dim, n))
    batches = [TaskBatch(t, np.zeros((1, n)), rng.standard_normal((out_dim, n))
                         if kind == REGRESSION else rng.integers(0, out_dim, n))
               for t, kind in enumerate(kinds)]
    targets = _stacked_targets(kinds, out_dim, batches)
    want_losses, want_g = scatter_losses(out, targets)
    saved, g_out = out.copy(), np.empty_like(out)
    _output_gradient(saved, targets, g_out)
    losses = window_losses(saved[None], [targets])[0]
    assert losses.tobytes() == np.array(want_losses).tobytes()
    assert g_out.tobytes() == want_g.tobytes()
    for t, (kind, batch) in enumerate(zip(kinds, batches)):
        want = out[t] - batch.y if kind == REGRESSION else out[t]
        assert saved[t].tobytes() == want.tobytes()


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_one_adapter_rescale_equals_the_per_block_rescale(depth):
    # rank 3, alpha 16: s = 16/3 is no power of two, so every scaled product rounds
    kinds = [REGRESSION, CLASSIFICATION, REGRESSION]
    model = random_model(60 + depth, layer_dims=(7, 6, 5, 4)[:depth + 1], rank=3, alpha=16.0,
                         kinds=kinds, randomize_b=True)
    batches = [random_batch(model, t, 5, seed=70 + t) for t in range(len(kinds))]
    step = step_batch(model, batches)
    for runs in (1, len(kinds)):
        stack = stack_runs(model, runs)
        stack.matrix += 0.1 * Rng(depth).standard_normal(stack.matrix.shape)
        want_rows, want_losses = per_block_gradient_rows(model, step, stack.heads, stack.adapters)
        grads = joint_gradient(stack, step)
        assert grads.rows.tobytes() == want_rows.tobytes(), f"{runs} run(s)"
        assert step_losses(stack, step) == want_losses


def test_a_model_has_one_adapter_scale():
    model = random_model(80, layer_dims=(6, 5, 4), rank=2, alpha=2.0)
    first, second = model.layers
    rescaled = FrozenLayer(second.w0, replace(second.adapter, alpha=4.0))
    with pytest.raises(ParameterError, match=r"adapter scales alpha / rank \[1.0, 2.0\] differ"):
        MultiTaskModel([first, rescaled], model.heads, list(model.kinds))
    # ranks and alphas may differ where their ratio does not
    rank1 = FrozenLayer(second.w0, init_adapter(4, 5, 1, 0.1, 1.0, Rng(0)))
    assert len(MultiTaskModel([first, rank1], model.heads, list(model.kinds)).layers) == 2
