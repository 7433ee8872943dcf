"""Shared fixtures-as-functions for the test suite."""

from __future__ import annotations

import csv

import numpy as np

from ortho_lora import (
    CLASSIFICATION,
    REGRESSION,
    BlockId,
    GradientStack,
    ParameterError,
    Rng,
    SurgeryStats,
    TaskBatch,
    TaskGradient,
    build_model,
    joint_gradient,
    predict,
    surgery,
)
from ortho_lora.model import _check_batch, _check_tasks, param_layout, task_loss_and_gradient


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


def random_batch(model, task_id, n, seed):
    rng = Rng(seed)
    x = rng.standard_normal((model.in_dim, n))
    if model.kinds[task_id] == REGRESSION:
        y = rng.standard_normal((model.out_dim, n))
    else:
        y = np.asarray(rng.integers(0, model.out_dim, n), dtype=np.int64)
    return TaskBatch(task_id, x, y)


def task_loss(model, batch) -> float:
    """batch's mean loss through its task's head, written out apart from the
    batched loss of the gradient path: half squared error summed over output
    dims, or softmax cross-entropy."""
    _check_batch(model, batch)
    out = predict(model, batch.task_id, batch.x)
    n = out.shape[1]
    if model.kinds[batch.task_id] == REGRESSION:
        return 0.5 * float(np.sum((out - batch.y) ** 2)) / n
    shifted = out - out.max(axis=0)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=0))
    return -float(log_probs[batch.y, np.arange(n)].sum()) / n


def fd_gradient(model, batch, block: BlockId, h: float) -> np.ndarray:
    """Central-difference gradient of task_loss w.r.t. one named block.

    Perturbs entries in place and restores the saved values exactly, so the
    model is bit-identical afterwards.
    """
    if not h > 0:
        raise ParameterError(f"fd step h must be > 0, got {h}")
    target = model.block(block)
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
    _check_tasks(model, batches)
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


def measure_surgery_floats(model, batches, scope, seed=0) -> int:
    """Instrumented float count for one surgery pass on this model's gradients."""
    grads, _ = joint_gradient(model, batches)
    stats = SurgeryStats()
    surgery(grads, scope, Rng(seed), stats=stats)
    return stats.floats_touched


def grad_of(task_id, a_blocks, b_blocks, head):
    """Assemble a TaskGradient from per-layer A/B arrays and one head array."""
    blocks = {}
    for i, arr in enumerate(a_blocks):
        blocks[BlockId("A", i)] = np.asarray(arr, dtype=np.float64)
    for i, arr in enumerate(b_blocks):
        blocks[BlockId("B", i)] = np.asarray(arr, dtype=np.float64)
    blocks[BlockId("HEAD", task_id)] = np.asarray(head, dtype=np.float64)
    return TaskGradient(task_id=task_id, blocks=blocks)


def stack_of(grads):
    """The TaskGradients of tasks 0..T-1 as the rows of one GradientStack."""
    first = grads[0].blocks
    layers = sum(b.role == "A" for b in first)
    heads = {g.task_id: g.blocks[BlockId("HEAD", g.task_id)].shape for g in grads}
    layout = param_layout([first[BlockId("A", i)].shape for i in range(layers)],
                          [first[BlockId("B", i)].shape for i in range(layers)],
                          [heads[t] for t in range(len(heads))])
    rows = np.zeros((len(grads), max(sl.stop for sl, _ in layout.values())))
    for row, g in zip(rows, grads):
        for bid, arr in g.blocks.items():
            row[layout[bid][0]] = arr.ravel()
    return GradientStack([g.task_id for g in grads], rows, layout)


def group_vector(grad: TaskGradient, bids) -> np.ndarray:
    """One scope group of a task gradient as one vector, blocks in the given order."""
    return np.concatenate([grad.blocks[b].ravel() for b in bids])


def blocks_equal(g1: TaskGradient, g2: TaskGradient) -> bool:
    if set(g1.blocks) != set(g2.blocks):
        return False
    return all(np.array_equal(g1.blocks[b], g2.blocks[b]) for b in g1.blocks)
