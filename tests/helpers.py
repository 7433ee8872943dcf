"""Shared fixtures-as-functions for the test suite."""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import groupby
from statistics import fmean

import numpy as np

from ortho_lora.config import FLAT, JOINT, TasksConfig
from ortho_lora.dense import Rng
from ortho_lora.errors import NumericError, ParameterError, ShapeError
from ortho_lora.model import (
    CLASSIFICATION,
    REGRESSION,
    EvalPool,
    GradientStack,
    Layout,
    MultiTaskModel,
    StepBatch,
    TaskGradient,
    build_model,
    check_batch,
    eval_metric,
    joint_gradient,
    stack_runs,
    task_loss_and_gradient,
    window_losses,
)
from ortho_lora.optim import AdamWState, adamw_step
from ortho_lora.surgery import (
    DEGENERATE_NORM,
    _coefficients,
    build_conflict_report,
    group_grams,
    merge,
    scope_groups,
    surgery,
)
from ortho_lora.tasks import make_conflict_set, subset_batch
from ortho_lora.trainer import (
    AVG_TASK,
    STREAM_DATA,
    STREAM_INIT,
    STREAM_SURGERY,
    EvalRecord,
    build_task_set,
    conflict_scope,
    run_count,
)

# A task gradient assembled by hand: per-task blocks keyed by block name.
Grad = namedtuple("Grad", ["task_id", "blocks"])

# The out arrays of group_grams, surgery and merge for one step's rows.
StepOuts = namedtuple("StepOuts", ["grams", "projected", "update"])


@dataclass
class TaskView:
    """One task's examples as a test writes them: inputs as (k, n) columns, y
    its (out_dim, n) regression targets or n class labels."""

    task_id: int
    x: np.ndarray
    y: np.ndarray


def task_views(batch: StepBatch) -> list[TaskView]:
    """Every task of a StepBatch as views of its slabs, in task order."""
    ys = {p: y_p for _, pos, y in batch.targets for p, y_p in zip(pos, y)}
    return [TaskView(batch.first + p, x, ys[p]) for p, x in enumerate(batch.x)]


def train_views(task_set) -> list[TaskView]:
    """Task t's whole train pool as view t: (k, N) inputs, (o, N) or N targets."""
    pool = task_set.train_pool
    return task_views(StepBatch(pool.x.swapaxes(1, 2),
                                [(kind, ids, np.moveaxis(y, 1, -1)) for kind, ids, y in pool.targets]))


def stack_views(kinds, views, first=0) -> StepBatch:
    """views, the batches of tasks first, first + 1, ... of these kinds, as one
    StepBatch, unchecked: the inputs in one array and each kind's targets in
    one, as a run's pools hold them."""
    targets = []
    for kind in (REGRESSION, CLASSIFICATION):
        pos = [p for p, k in enumerate(kinds) if k == kind]
        if pos:
            targets.append((kind, pos, np.array([views[p].y for p in pos])))
    return StepBatch(np.array([v.x for v in views]), targets, first)


def task_step(model, view) -> StepBatch:
    """The one-task StepBatch of view's task for model, unchecked: what
    ``task_loss_and_gradient`` takes."""
    return stack_views([model.kinds[view.task_id]], [view], view.task_id)


def generator(seed, *spawn_key):
    """The numpy Generator behind Rng(seed).child(k)...: the same draws, plus
    the integer draws Rng does not offer."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def shuffle(seed, n, *spawn_key) -> list[int]:
    """The first shuffle of range(n) on the stream of Rng(seed).child(k)...,
    drawn by numpy's own ``Generator.permutation``: a surgery order that no
    ``Rng`` method draws."""
    return generator(seed, *spawn_key).permutation(n).tolist()


def random_model(seed, layer_dims=(6, 5, 4), rank=2, alpha=2.0, sigma=0.1,
                 kinds=(REGRESSION, CLASSIFICATION), out_dim=3, randomize_b=False):
    """A small model; randomize_b fills the (normally zero) b blocks so that
    gradients flow through every block, emulating a mid-training state."""
    rng = Rng(seed)
    model = build_model(list(layer_dims), rank, alpha, sigma, list(kinds), out_dim, rng.child(0))
    if randomize_b:
        brng = rng.child(1)
        for layer in model.layers:
            layer.adapter.b[...] = brng.standard_normal(layer.adapter.b.shape) * 0.1
    return model


def conflict_set(kinds, in_dim, out_dim, conflict_level, noise_sigma, n_train, n_eval, rng,
                 shared_scale=1.0):
    """make_conflict_set on the tasks section of these values, which must be
    values config_from_dict accepts: make_conflict_set checks none of them."""
    section = TasksConfig(kinds=list(kinds), in_dim=in_dim, out_dim=out_dim,
                          conflict_level=conflict_level, noise_sigma=noise_sigma,
                          shared_scale=shared_scale, n_train=n_train, n_eval=n_eval)
    return make_conflict_set(section, rng)


def own_copy(model):
    """A model equal to model, every task's head included, with its own parameter buffer."""
    return MultiTaskModel(model.layers, model.heads, list(model.kinds))


def random_batch(model, task_id, n, seed):
    rng = generator(seed)
    x = rng.standard_normal((model.in_dim, n))
    if model.kinds[task_id] == REGRESSION:
        y = rng.standard_normal((model.out_dim, n))
    else:
        y = rng.integers(0, model.out_dim, n).astype(np.int64)
    return TaskView(task_id, x, y)


def predict(model, task_id, x):
    """Task task_id's outputs for the inputs x, through its own head."""
    if not 0 <= task_id < model.num_tasks:
        raise ParameterError(f"task_id {task_id} outside [0, {model.num_tasks})")
    out = model.heads[task_id] @ fresh_forward(model, x)[0]
    if not np.isfinite(out).all():
        raise NumericError(f"non-finite activations at head {task_id}")
    return out


def merged_features(model, x):
    """The features of the inputs x through each layer's merged weight
    w0 + s*b@a, one fresh product per layer, written out apart from
    eval_metric with the same bits, and its NumericError naming the layer."""
    h = x
    for i, layer in enumerate(model.layers):
        ad = layer.adapter
        with np.errstate(over="ignore", invalid="ignore"):
            z = (layer.w0 + ad.scale * (ad.b @ ad.a)) @ h
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite activations at layer {i}")
        h = np.tanh(z)
    return h


def reference_metric(model, batch):
    """One task's eval written out on its own: ``merged_features`` with no
    output buffers, the task's head (a one-task model's only head), then MSE
    or accuracy; the bits and the NumericError messages of eval_metric."""
    own = 0 if model.num_tasks == 1 else batch.task_id
    out = model.heads[own] @ merged_features(model, batch.x)
    if not np.isfinite(out).all():
        raise NumericError(f"non-finite activations at head {batch.task_id}")
    if model.kinds[own] == CLASSIFICATION:
        return float(np.mean(out.argmax(axis=0) == batch.y))
    return float(np.mean((out - batch.y) ** 2))


def task_loss(model, batch) -> float:
    """batch's mean loss through its task's head, written out apart from the
    batched loss of the gradient path: half squared error summed over output
    dims, or softmax cross-entropy."""
    out = predict(model, batch.task_id, batch.x)
    check_batch(task_step(model, batch), [model.kinds[batch.task_id]], model.out_dim)
    n = out.shape[1]
    if model.kinds[batch.task_id] == REGRESSION:
        return 0.5 * float(np.sum((out - batch.y) ** 2)) / n
    shifted = out - out.max(axis=0)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=0))
    return -float(log_probs[batch.y, np.arange(n)].sum()) / n


def fd_gradient(model, batch, block: str, h: float) -> np.ndarray:
    """Central-difference gradient of task_loss w.r.t. one named block.

    Perturbs entries in place and restores the saved values exactly, so the
    model is bit-identical afterwards.
    """
    if not h > 0:
        raise ParameterError(f"fd step h must be > 0, got {h}")
    sl, shape = model.layout.blocks[block]
    target = model.params[sl].reshape(shape)
    grad = np.zeros_like(target)
    for idx in np.ndindex(*target.shape):
        saved = target[idx]
        target[idx] = saved + h
        loss_plus = task_loss(model, batch)
        target[idx] = saved - h
        loss_minus = task_loss(model, batch)
        target[idx] = saved
        grad[idx] = (loss_plus - loss_minus) / (2.0 * h)
    return grad


def task_gradient(model, batch) -> TaskGradient:
    """One task's gradient as block views: every adapter block and its own head."""
    return task_loss_and_gradient(model, task_step(model, batch))[1][0]


def step_batch(model, batches) -> StepBatch:
    """The StepBatch a run gathers for model's tasks: batches, one per task in
    any order, stacked in task order and checked by ``check_batch``, as a run
    checks its train pool; ParameterError unless there is exactly one batch
    per task. For a stack, model is the model it stacks."""
    ordered = sorted(batches, key=lambda b: b.task_id)
    seen = [b.task_id for b in ordered]
    if seen != list(range(model.num_tasks)):
        raise ParameterError(f"need exactly one batch per task 0..{model.num_tasks - 1}, "
                             f"got task_ids {seen}")
    batch = stack_views(model.kinds, ordered)
    check_batch(batch, model.kinds, model.out_dim)
    return batch


def joint_loss(model, batches, weights=None) -> float:
    """Weighted sum of the task losses; one batch per task."""
    step_batch(model, batches)
    if weights is None:
        weights = [1.0] * len(batches)
    if len(weights) != len(batches):
        raise ParameterError(f"{len(weights)} weights for {len(batches)} tasks")
    return sum(float(weights[b.task_id]) * task_loss(model, b) for b in batches)


def surgery_floats(grads: GradientStack, scope) -> int:
    """Gradient floats one surgery pass projects: every row over every scope group."""
    groups = scope_groups(grads[0], scope)
    return len(grads.task_ids) * sum(grads[0].blocks[name].size
                                     for _, names in groups for name in names)


def measure_surgery_floats(model, batches, scope) -> int:
    """surgery_floats of this model's gradients on batches."""
    grads = joint_gradient(stack_runs(model, 1), step_batch(model, batches))
    return surgery_floats(grads, scope)


def padded_update(grads: GradientStack) -> np.ndarray:
    """The flat update of gradient rows of any of the layout's tasks, in any
    order: each row widened to the full layout, zero in every head but its
    task's, then summed with sum(axis=0). merge gives these bits for every
    task in order; for one task's row of ``task_loss_and_gradient`` this is
    that task's update alone."""
    layout = grads.layout
    adapter_cols = layout.heads.start
    padded = np.zeros((len(grads.task_ids), layout.size))
    padded[:, :adapter_cols] = grads.rows[:, :adapter_cols]
    for wide, task_id, row in zip(padded, grads.task_ids, grads.rows):
        wide[layout.blocks[f"HEAD{task_id}"][0]] = row[adapter_cols:]
    return padded.sum(axis=0)


def grad_of(task_id, a_blocks, b_blocks, head) -> Grad:
    """A task gradient from per-layer A/B arrays and one head array."""
    blocks = {}
    for role, arrays in (("A", a_blocks), ("B", b_blocks)):
        for i, arr in enumerate(arrays):
            blocks[f"L{i}.{role}"] = np.asarray(arr, dtype=np.float64)
    blocks[f"HEAD{task_id}"] = np.asarray(head, dtype=np.float64)
    return Grad(task_id, blocks)


def stack_of(grads) -> GradientStack:
    """The gradients of tasks 0..T-1, one head shape for all, as the rows of one
    GradientStack: each row its adapter columns, then its own head."""
    first = grads[0].blocks
    layers = range(sum(name.endswith(".A") for name in first))
    layout = Layout([first[f"L{i}.A"].shape for i in layers], [first[f"L{i}.B"].shape for i in layers],
                    first[f"HEAD{grads[0].task_id}"].shape, len(grads))
    adapter_cols = layout.heads.start
    rows = np.zeros((len(grads), adapter_cols + math.prod(layout.head_shape)))
    for row, g in zip(rows, grads):
        for name, arr in g.blocks.items():
            sl = slice(adapter_cols, None) if name.startswith("HEAD") else layout.blocks[name][0]
            row[sl] = arr.ravel()
    return GradientStack([g.task_id for g in grads], rows, layout)


def group_vector(grad, names) -> np.ndarray:
    """One scope group of a task gradient as one vector, blocks in the given order."""
    return np.concatenate([grad.blocks[name].ravel() for name in names])


def blocks_equal(g1, g2) -> bool:
    if set(g1.blocks) != set(g2.blocks):
        return False
    return all(np.array_equal(g1.blocks[b], g2.blocks[b]) for b in g1.blocks)


def reference_conflict_rows(grads: GradientStack, scope) -> list[tuple]:
    """(i, j, block, dot, cosine) per conflict report row, by the per-pair loop
    the columnar report replaced: every unordered pair of the rows in order,
    every group, cosine 0.0 when a norm is zero. Its Gram matrices are plain
    v @ v.T."""
    groups = grads.layout.groups(scope)
    dots = [(grads.rows[:, cols] @ grads.rows[:, cols].T).tolist() for _, cols in groups]
    norms = [[math.sqrt(row[k]) for k, row in enumerate(gram)] for gram in dots]
    count = len(grads.rows)
    rows = []
    for p in range(count):
        for q in range(p + 1, count):
            for (label, _), gram, norm in zip(groups, dots, norms):
                dot = gram[p][q]
                cosine = 0.0 if norm[p] == 0.0 or norm[q] == 0.0 else dot / (norm[p] * norm[q])
                rows.append((p, q, label, dot, cosine))
    return rows


def _gram_out(layout: Layout, scope, count: int) -> np.ndarray:
    """An empty (G, T, T) step slice of a run's Gram store: group_grams' out
    for count rows in scope."""
    return np.empty((len(layout.groups(scope)), count, count))


def step_outs(grads: GradientStack, scope=FLAT) -> StepOuts:
    """Fresh out arrays of the step functions for grads' rows: scope's
    (G, T, T) grams, surgery's output stack, and merge's (1, P) update, or
    None for a one-head layout, as StepBuffers holds them."""
    layout = grads.layout
    update = np.empty((1, layout.size)) if layout.num_tasks > 1 else None
    return StepOuts(_gram_out(layout, scope, len(grads.task_ids)),
                    GradientStack(grads.task_ids, np.empty_like(grads.rows), layout), update)


def step_grams(stack, scope):
    """The grams that train_step of stack writes in scope; None for no scope."""
    return None if scope is None else _gram_out(stack.models[0].layout, scope, len(stack.task_ids))


def seed_task_sets(config, num_seeds: int) -> list:
    """The task sets of seeds config.seed .. config.seed + num_seeds - 1, as
    sweep-rank builds them for rank_sweep."""
    return [build_task_set(config.with_updates(seed=config.seed + s)) for s in range(num_seeds)]


def project(grads: GradientStack, scope, order) -> GradientStack:
    """surgery of grads in scope and order on their group_grams, each into
    fresh ``step_outs``."""
    outs = step_outs(grads, scope)
    return surgery(grads, scope, order, group_grams(grads, scope, outs.grams), outs.projected)


def step_report(grads: GradientStack, scope, grams=None):
    """The conflict report of one step's gradient rows, as a run of that one
    step builds it; grams defaults to ``group_grams`` of the rows."""
    if grams is None:
        grams = group_grams(grads, scope, step_outs(grads, scope).grams)
    return build_conflict_report(grads.layout, scope, grams[None])


def reference_evals(log) -> list[EvalRecord]:
    """The eval records of log's metric rows, built as run_mode built them
    before its log held an array: after each epoch, one record per task, then
    the epoch's ``avg`` record, the fmean of the task metrics."""
    evals = []
    for epoch, metrics in enumerate(log.metrics.tolist()):
        evals.extend(EvalRecord(epoch=epoch, mode=log.mode, task=str(t), metric=metric)
                     for t, metric in enumerate(metrics))
        evals.append(EvalRecord(epoch=epoch, mode=log.mode, task=AVG_TASK, metric=fmean(metrics)))
    return evals


def project_pair(gi_vec: np.ndarray, gj_vec: np.ndarray) -> np.ndarray:
    """Conditional projection of gi onto the normal plane of gj: the surgery
    rule on explicit vectors, the reference the Gram path is tested against.

    Returns gi unchanged when the dot is non-negative; otherwise removes the
    component along gj, which zeroes the mutual inner product and can only
    shrink the norm.
    """
    if gi_vec.shape != gj_vec.shape:
        raise ShapeError(f"project_pair: lengths {gi_vec.shape} and {gj_vec.shape} differ")
    dot = float(gi_vec @ gj_vec)
    if dot >= 0.0:
        return gi_vec
    nj_sq = float(gj_vec @ gj_vec)
    if nj_sq < DEGENERATE_NORM * DEGENERATE_NORM:
        raise NumericError(
            f"project_pair: conflicting dot {dot} against a vector of norm "
            f"{np.sqrt(nj_sq)} below {DEGENERATE_NORM}"
        )
    return gi_vec - (dot / nj_sq) * gj_vec


def reference_steps_csv(log) -> bytes:
    """steps.csv as csv.writer renders it: each step's loss rows, then its
    conflict rows, 17-digit floats, \\r\\n line ends, empty cells left empty."""
    conflicts: dict[int, list] = {}
    for report in log.conflicts:
        for p in report.pairs:
            conflicts.setdefault(p.step, []).append((report.scope, p))
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["step", "task", "loss", "lr", "scope", "pair_i", "pair_j", "block",
                     "dot", "cosine", "conflicted"])
    for step, records in groupby(log.steps, key=lambda rec: rec.step):
        for rec in records:
            writer.writerow([rec.step, rec.task, f"{rec.loss:.17g}", f"{rec.lr:.17g}",
                             "", "", "", "", "", "", ""])
        for scope, p in conflicts.get(step, []):
            writer.writerow([step, "", "", "", scope, p.i, p.j, p.block,
                             f"{p.dot:.17g}", f"{p.cosine:.17g}", int(p.conflicted)])
    return out.getvalue().encode("utf-8")


def eager_coefficients(gram, order):
    """surgery._coefficients written as the loop it replaced: row i of dots = C G
    holds <w_i, g_k> for every k, each pair test looks its dot up, and each
    fire rewrites the whole dot row. The reference the on-demand dots are
    checked against, bit for bit and message for message."""
    originals = gram.tolist()
    coeffs = np.eye(len(gram)).tolist()
    dots = [row[:] for row in originals]
    fired = False
    for i in order:
        for j in order:
            if j == i or dots[i][j] >= 0.0:
                continue
            if originals[j][j] < DEGENERATE_NORM * DEGENERATE_NORM:
                raise NumericError(f"surgery: conflicting dot {dots[i][j]} against a gradient "
                                   f"of norm {np.sqrt(originals[j][j])} below {DEGENERATE_NORM}")
            coef = dots[i][j] / originals[j][j]
            coeffs[i][j] -= coef
            dots[i] = [a - coef * b for a, b in zip(dots[i], originals[j])]
            fired = True
    return np.array(coeffs) if fired else None


def step_losses(stack, batch) -> list[float]:
    """The per-task losses of the step just taken on stack with batch, from what
    the step left in stack.step.out: ``window_losses`` over a window of that
    one step."""
    return window_losses(stack.step.out[None], [batch.targets])[0].tolist()


def reference_losses(stack, batch) -> list[float]:
    """The per-task losses of a step of stack on batch, as the step computed them
    before a run's window did: the step's forward into fresh arrays, then
    ``scatter_losses``. Call it before the step moves the stack."""
    features, _ = fresh_forward(stack.models[0], batch.x, stack.adapters)
    return scatter_losses(stack.heads @ features, batch.targets)[0]


def scatter_losses(out, targets):
    """The step's losses and dloss/dout as they were first written: every
    kind's losses and dloss/dout scattered into fresh (T,) and (T, o, n)
    arrays, one kind included. The reference the one-kind path and the
    window's losses are checked against, bit for bit."""
    n = out.shape[2]
    losses = np.empty(len(out))
    g_out = np.empty_like(out)
    for kind, pos, y in targets:
        pos = slice(None) if len(pos) == len(out) else pos
        if kind == REGRESSION:
            resid = out[pos] - y
            losses[pos] = 0.5 * (resid * resid).reshape(len(y), -1).sum(axis=1) / n
            g_out[pos] = resid / n
            continue
        logits = out[pos]
        shifted = logits - logits.max(axis=1, keepdims=True)
        expz = np.exp(shifted)
        denom = expz.sum(axis=1, keepdims=True)
        log_probs = shifted - np.log(denom)
        picked = (np.arange(len(y))[:, None], y, np.arange(n))
        losses[pos] = -log_probs[picked].sum(axis=1) / n
        grad = expz / denom
        grad[picked] -= 1.0
        g_out[pos] = grad / n
    return losses.tolist(), g_out


def per_block_gradient_rows(model, batch, heads, adapters=None):
    """joint_gradient's body written as the form it replaced: ``scatter_losses``,
    and each layer's B and A gradient blocks scaled by that layer's alpha/rank
    right after their product. The reference the one rescale per call is
    checked against, bit for bit."""
    features, caches = fresh_forward(model, batch.x, adapters)
    out = heads @ features
    losses, g_out = scatter_losses(out, batch.targets)
    rows = np.empty((len(out), model.layout.heads.start + heads[0].size))
    np.matmul(g_out, features.swapaxes(-1, -2), out=rows[:, -heads[0].size:].reshape(heads.shape))
    delta_h = heads.swapaxes(-1, -2) @ g_out
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        scale = layer.adapter.scale
        a, b, h_in, ah, h_out = caches[i]
        dz = (1.0 - h_out * h_out) * delta_h
        grad_b = rows[:, model.layout.b[i]].reshape(len(rows), *layer.adapter.b.shape)
        np.matmul(dz, ah.swapaxes(-1, -2), out=grad_b)
        grad_b *= scale
        bt_dz = b.swapaxes(-1, -2) @ dz
        grad_a = rows[:, model.layout.a[i]].reshape(len(rows), *layer.adapter.a.shape)
        np.matmul(bt_dz, h_in.swapaxes(-1, -2), out=grad_a)
        grad_a *= scale
        if i > 0:
            delta_h = layer.w0.T @ dz + scale * (a.swapaxes(-1, -2) @ bt_dz)
    return rows, losses


def reference_run(config, mode):
    """run_mode written as the loop it replaced: each step's lr from the scalar
    formula, each data-order block drawn one task's permutation at a time,
    each step's surgery order by its own permutation, and a fresh Gram stack
    per step, ``np.stack``ed into the one report after the last step. Draws
    through numpy's own Generators, on the run's substreams. Returns the loss
    rows, the lrs, the report (None without a conflict scope), every epoch's
    eval metrics and the final parameter stack."""
    task_set = build_task_set(config)
    base = build_model(config.model.layer_dims, config.model.rank, config.model.alpha,
                       config.model.sigma_init, task_set.kinds, config.tasks.out_dim,
                       Rng(config.seed).child(STREAM_INIT))
    task_set.check_train(base.out_dim)
    eval_pool = EvalPool.of(task_set.eval, base)
    stack = stack_runs(base, run_count(config, mode))
    opt_state = AdamWState(hyper=config.optimizer)
    data_gen = generator(config.seed, STREAM_DATA)
    surgery_gen = generator(config.seed, STREAM_SURGERY)
    scope = conflict_scope(config, mode)
    pool, batch_size, total = task_set.train_pool, config.schedule.batch_size, config.total_steps()
    num_tasks, size = pool.x.shape[:2]
    losses, lrs, grams = [], [], []
    metrics = [eval_metric(stack, eval_pool)]
    for _ in range(config.schedule.epochs):
        left = config.steps_per_epoch()
        while left > 0:
            block = np.array([data_gen.permutation(size) for _ in range(num_tasks)])
            count = min(left, size // batch_size)
            idx = block[:, :count * batch_size].reshape(num_tasks, count, -1)
            for batch in subset_batch(pool, idx):
                lr = config.optimizer.lr_base * (1.0 - len(lrs) / total)
                step_losses = reference_losses(stack, batch)
                grads = joint_gradient(stack, batch)
                outs = step_outs(grads, scope or FLAT)
                if scope is not None:
                    grams.append(group_grams(grads, scope, outs.grams))
                    if mode != JOINT:
                        grads = surgery(grads, scope, surgery_gen.permutation(num_tasks).tolist(),
                                        grams[-1], outs.projected)
                adamw_step(stack.matrix, merge(grads, outs.update), opt_state, lr)
                losses.append(step_losses)
                lrs.append(lr)
            left -= count
        metrics.append(eval_metric(stack, eval_pool))
    report = (build_conflict_report(base.layout, scope, np.stack(grams))
              if grams else None)
    return losses, lrs, report, metrics, stack.matrix



# The step as it was before a stack reused its buffers: every array fresh on
# every call. The references the buffered step is checked against, bit for bit.

def fresh_forward(model, x, adapters=None):
    """The step's forward, as joint_gradient runs it on its StepBuffers, into
    fresh arrays: tanh(w0 h + s*b@(a h)) per layer, with adapters (model's
    own 2-D ones when None) and x (k, n) or (T, k, n), its shape checked as
    StepBuffers checks it. Returns the features and, per layer, the cache
    (a, b, layer input h_in, a@h_in, activated output)."""
    if adapters is None:
        adapters = [(layer.adapter.a, layer.adapter.b) for layer in model.layers]
    if x.shape[-2:-1] != (model.in_dim,):
        raise ShapeError(f"input {x.shape} does not match model input dim {model.in_dim}")
    h = x
    caches = []
    for i, (layer, (a, b)) in enumerate(zip(model.layers, adapters)):
        with np.errstate(over="ignore", invalid="ignore"):
            ah = np.matmul(a, h)
            z = np.matmul(layer.w0, h)
            low = np.matmul(b, ah)
            low *= layer.adapter.scale
            z += low
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite activations at layer {i}")
        h_out = np.tanh(z, out=z)
        caches.append((a, b, h, ah, h_out))
        h = h_out
    return h, caches


def fresh_backprop(model, caches, delta_features, rows):
    """Propagate d(loss)/d(features), (T, d, n), down the layers into the
    adapter columns of rows, each product a fresh array, then scale every
    adapter column once by the model's one scale."""
    delta_h = delta_features
    scale = model.layers[0].adapter.scale
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        a, b, h_in, ah, h_out = caches[i]
        dz = h_out * h_out
        np.subtract(1.0, dz, out=dz)
        dz *= delta_h
        grad_b = rows[:, model.layout.b[i]].reshape(len(rows), *layer.adapter.b.shape)
        np.matmul(dz, ah.swapaxes(-1, -2), out=grad_b)
        bt_dz = b.swapaxes(-1, -2) @ dz
        grad_a = rows[:, model.layout.a[i]].reshape(len(rows), *layer.adapter.a.shape)
        np.matmul(bt_dz, h_in.swapaxes(-1, -2), out=grad_a)
        if i > 0:
            delta_h = layer.w0.T @ dz + scale * (a.swapaxes(-1, -2) @ bt_dz)
    rows[:, :model.layout.heads.start] *= scale


def fresh_gradient_rows(model, batch, heads, adapters=None):
    """(rows, losses) of joint_gradient on a StepBatch: slab p through heads[p]
    with adapters (model's own 2-D ones when None), into a fresh (T, A + o*d)
    array."""
    features, caches = fresh_forward(model, batch.x, adapters)
    out = heads @ features
    if not np.isfinite(out).all():
        finite = np.isfinite(out).all(axis=(1, 2))
        raise NumericError(f"non-finite activations at head {batch.first + int(finite.argmin())}")
    losses, g_out = scatter_losses(out, batch.targets)
    rows = np.empty((len(out), model.layout.heads.start + heads[0].size))
    np.matmul(g_out, features.swapaxes(-1, -2), out=rows[:, -heads[0].size:].reshape(heads.shape))
    fresh_backprop(model, caches, heads.swapaxes(-1, -2) @ g_out, rows)
    return rows, losses


def fresh_group_grams(grads, scope):
    """group_grams into a fresh (G, T, T) array, each group sliced afresh."""
    groups = grads.layout.groups(scope)
    grams = np.empty((len(groups),) + (len(grads.task_ids),) * 2)
    for gram, (_, cols) in zip(grams, groups):
        v = grads.rows[:, cols]
        np.matmul(v, v.T, out=gram)
    return grams


def fresh_surgery(grads, scope, order, grams):
    """surgery into a fresh copy of the rows, each projected group a fresh
    product assigned back into its columns."""
    rows = grads.rows.copy()
    for gram, (_, cols) in zip(grams, grads.layout.groups(scope), strict=True):
        coeffs = _coefficients(gram, order)
        if coeffs is not None:
            rows[:, cols] = coeffs @ rows[:, cols]
    return GradientStack(grads.task_ids, rows, grads.layout)


def fresh_merge(grads):
    """merge into a fresh (1, P) update, or the rows themselves for one-head runs."""
    layout, rows = grads.layout, grads.rows
    if layout.num_tasks == 1:
        return rows
    update = np.empty((1, layout.size))
    np.add(rows[:, layout.heads.start:], 0.0, out=update[0, layout.heads].reshape(len(rows), -1))
    np.add.reduce(rows[:, :layout.heads.start], axis=0, out=update[0, :layout.heads.start])
    return update
