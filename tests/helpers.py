"""Shared fixtures-as-functions for the test suite."""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from itertools import groupby

import numpy as np

from ortho_lora.dense import Rng
from ortho_lora.errors import NumericError, ParameterError
from ortho_lora.model import (
    CLASSIFICATION,
    REGRESSION,
    GradientStack,
    Layout,
    MultiTaskModel,
    TaskBatch,
    TaskGradient,
    _check_tasks,
    _stacked_targets,
    build_model,
    forward_features,
    joint_gradient,
    task_loss_and_gradient,
)
from ortho_lora.surgery import scope_groups

# A task gradient assembled by hand: per-task blocks keyed by block name.
Grad = namedtuple("Grad", ["task_id", "blocks"])


def generator(seed, *spawn_key):
    """The numpy Generator behind Rng(seed).child(k)...: the same draws, plus
    the integer draws Rng does not offer."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


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
    return TaskBatch(task_id, x, y)


def predict(model, task_id, x):
    """Task task_id's outputs for the inputs x, through its own head."""
    if not 0 <= task_id < model.num_tasks:
        raise ParameterError(f"task_id {task_id} outside [0, {model.num_tasks})")
    features, _ = forward_features(model, x)
    out = model.heads[task_id] @ features
    if not np.isfinite(out).all():
        raise NumericError(f"non-finite activations at head {task_id}")
    return out


def task_loss(model, batch) -> float:
    """batch's mean loss through its task's head, written out apart from the
    batched loss of the gradient path: half squared error summed over output
    dims, or softmax cross-entropy."""
    out = predict(model, batch.task_id, batch.x)
    _stacked_targets([model.kinds[batch.task_id]], model.out_dim, [batch], batch.x.shape[1])
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
    return task_loss_and_gradient(model, batch)[1][0]


def joint_loss(model, batches, weights=None) -> float:
    """Weighted sum of the task losses; one batch per task."""
    _check_tasks(model.num_tasks, batches)
    if weights is None:
        weights = [1.0] * len(batches)
    if len(weights) != len(batches):
        raise ParameterError(f"{len(weights)} weights for {len(batches)} tasks")
    return sum(float(weights[b.task_id]) * task_loss(model, b) for b in batches)


def dump_csv(task_set, path) -> None:
    """Inspection dump: one row per example with inputs and target columns."""
    in_dim = task_set.in_dim
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "split", "example", *(f"x{i}" for i in range(in_dim)), "target"])
        for split, pools in (("train", task_set.train), ("eval", task_set.eval)):
            for batch in pools:
                for col in range(batch.x.shape[1]):
                    target = (
                        int(batch.y[col])
                        if batch.y.ndim == 1
                        else ";".join(f"{v:.17g}" for v in batch.y[:, col])
                    )
                    writer.writerow(
                        [batch.task_id, split, col,
                         *(f"{v:.17g}" for v in batch.x[:, col]), target]
                    )


def surgery_floats(grads: GradientStack, scope) -> int:
    """Gradient floats one surgery pass projects: every row over every scope group."""
    groups = scope_groups(grads[0], scope)
    return len(grads.task_ids) * sum(grads[0].blocks[name].size
                                     for _, names in groups for name in names)


def measure_surgery_floats(model, batches, scope) -> int:
    """surgery_floats of this model's gradients on batches."""
    return surgery_floats(joint_gradient(model, batches)[0], scope)


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
    the columnar report replaced: every unordered pair in task-id order, every
    group, cosine 0.0 when a norm is zero. Its Gram matrices are plain v @ v.T."""
    groups = grads.layout.groups(scope)
    dots = [(grads.rows[:, cols] @ grads.rows[:, cols].T).tolist() for _, cols in groups]
    norms = [[math.sqrt(row[k]) for k, row in enumerate(gram)] for gram in dots]
    ids = grads.task_ids
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rows = []
    for x, p in enumerate(order):
        for q in order[x + 1:]:
            for (label, _), gram, norm in zip(groups, dots, norms):
                dot = gram[p][q]
                cosine = 0.0 if norm[p] == 0.0 or norm[q] == 0.0 else dot / (norm[p] * norm[q])
                rows.append((ids[p], ids[q], label, dot, cosine))
    return rows


def reference_steps_csv(log) -> bytes:
    """steps.csv as csv.writer renders it: each step's loss rows, then its
    conflict rows, 17-digit floats, \\r\\n line ends, empty cells left empty."""
    conflicts = {r.step: r for r in log.conflicts}
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["step", "task", "loss", "lr", "scope", "pair_i", "pair_j", "block",
                     "dot", "cosine", "conflicted"])
    for step, records in groupby(log.steps, key=lambda rec: rec.step):
        for rec in records:
            writer.writerow([rec.step, rec.task, f"{rec.loss:.17g}", f"{rec.lr:.17g}",
                             "", "", "", "", "", "", ""])
        if step in conflicts:
            report = conflicts[step]
            for p in report.pairs:
                writer.writerow([step, "", "", "", report.scope, p.i, p.j, p.block,
                                 f"{p.dot:.17g}", f"{p.cosine:.17g}", int(p.conflicted)])
    return out.getvalue().encode("utf-8")
