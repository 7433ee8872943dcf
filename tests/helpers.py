"""Shared fixtures-as-functions for the test suite."""

from __future__ import annotations

import numpy as np

from ortho_lora import (
    CLASSIFICATION,
    REGRESSION,
    BlockId,
    GradientStack,
    Rng,
    TaskBatch,
    TaskGradient,
    TaskSpec,
    build_model,
)
from ortho_lora.model import param_layout


def random_model(seed, layer_dims=(6, 5, 4), rank=2, alpha=2.0, sigma=0.1,
                 specs=None, randomize_b=False):
    """A small model; randomize_b fills the (normally zero) b blocks so that
    gradients flow through every block, emulating a mid-training state."""
    rng = Rng(seed)
    if specs is None:
        specs = [TaskSpec(REGRESSION, 3), TaskSpec(CLASSIFICATION, 3)]
    model = build_model(list(layer_dims), rank, alpha, sigma, specs, rng.child(0))
    if randomize_b:
        brng = rng.child(1)
        for layer in model.layers:
            layer.adapter.b[...] = brng.standard_normal(layer.adapter.b.shape) * 0.1
    return model


def random_batch(model, task_id, n, seed):
    rng = Rng(seed)
    x = rng.standard_normal((model.in_dim, n))
    spec = model.task_specs[task_id]
    if spec.kind == REGRESSION:
        y = rng.standard_normal((spec.out_dim, n))
    else:
        y = np.asarray(rng.integers(0, spec.out_dim, n), dtype=np.int64)
    return TaskBatch(task_id, x, y)


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
