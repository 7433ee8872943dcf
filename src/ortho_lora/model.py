"""Small multi-task network: frozen linear stack with adapters, per-task heads.

The backbone is 1-3 frozen linear layers with a tanh after each one (smooth,
so finite-difference checks stay clean); each layer carries a low-rank
adapter. Per-task linear heads map the final features to task outputs. The
trainable parameters are the adapter pairs plus the heads; w0 matrices are
never touched.

The trainable parameters live in one float64 vector, ``model.params``, laid
out ``[A0, A1, ..., B0, B1, ..., HEAD0, HEAD1, ...]``; each adapter matrix and
head is a view into it. A ``GradientStack`` holds task gradients as the rows
of one (T, P) matrix in the same layout.

Gradients are computed by hand-rolled reverse mode. For a layer with input h,
effective weight w0 + s*b@a (s = alpha/rank) and downstream delta dz:

    grad_b = s * dz @ (a @ h)^T
    grad_a = s * b^T @ dz @ h^T
    delta_h = w0^T @ dz + s * a^T @ (b^T @ dz)

Every batch column belongs to one task, so ``joint_gradient`` gets every
task's gradient from one forward and one backward pass over the concatenated
batch: the deltas propagate together and only the final outer products above
are split by each task's column slice. ``fd_gradient`` provides the
independent central-difference oracle used by the tests.

Gradient code writes no parameter; its one side effect is the
backward_passes instrumentation counter.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .adapter import FrozenLayer, LoraAdapter, init_adapter
from .dense import Matrix, Rng, gaussian_matrix
from .errors import NumericError, ParameterError, ShapeError

REGRESSION = "regression"
CLASSIFICATION = "classification"


@dataclass(frozen=True)
class BlockId:
    """Names one trainable matrix: ("A"|"B", layer index) or ("HEAD", task index)."""

    role: str
    index: int

    def __str__(self) -> str:
        if self.role == "HEAD":
            return f"HEAD{self.index}"
        return f"L{self.index}.{self.role}"


@dataclass(frozen=True)
class TaskSpec:
    kind: str  # REGRESSION or CLASSIFICATION
    out_dim: int  # output dims, or class count


@dataclass
class TaskBatch:
    """One task's mini-batch: inputs as columns, targets per the task kind.

    y is a (out_dim x n) matrix for regression or an int vector of n class
    labels for classification.
    """

    task_id: int
    x: Matrix
    y: np.ndarray


@dataclass
class TaskGradient:
    """Per-task gradients keyed by block: all adapter blocks + the task's own head."""

    task_id: int
    blocks: dict[BlockId, Matrix]


# Where each trainable block sits in a flat parameter vector: (slice, shape).
Layout = dict[BlockId, tuple[slice, tuple[int, ...]]]


def param_layout(a_shapes: list[tuple[int, ...]], b_shapes: list[tuple[int, ...]],
                 head_shapes: list[tuple[int, ...]]) -> Layout:
    """The flat layout [A0, A1, ..., B0, B1, ..., HEAD0, HEAD1, ...]."""
    layout: Layout = {}
    start = 0
    for role, shapes in (("A", a_shapes), ("B", b_shapes), ("HEAD", head_shapes)):
        for i, shape in enumerate(shapes):
            stop = start + int(np.prod(shape))
            layout[BlockId(role, i)] = (slice(start, stop), tuple(shape))
            start = stop
    return layout


def block_views(vec: np.ndarray, layout: Layout) -> dict[BlockId, Matrix]:
    """Every block of the layout as a matrix view into the flat vector vec."""
    return {bid: vec[sl].reshape(shape) for bid, (sl, shape) in layout.items()}


@dataclass(eq=False)
class GradientStack(Sequence):
    """Several tasks' gradients as the rows of one (T, P) matrix in a parameter layout.

    Row t is task task_ids[t]'s full gradient: every adapter block and its own
    head; the other tasks' head entries are zero. Indexing yields the row as
    a TaskGradient of block views.
    """

    task_ids: list[int]
    rows: np.ndarray
    layout: Layout

    def __len__(self) -> int:
        return len(self.task_ids)

    def __getitem__(self, pos: int) -> TaskGradient:
        task_id = self.task_ids[pos]
        row = self.rows[pos]
        return TaskGradient(task_id, {bid: row[sl].reshape(shape)
                                      for bid, (sl, shape) in self.layout.items()
                                      if bid.role != "HEAD" or bid.index == task_id})


@dataclass(eq=False)
class MultiTaskModel:
    """Frozen layers, adapters and heads; the trainable ones are views into params.

    Construction copies every adapter a/b and head into a fresh params
    vector laid out by ``layout`` and rebinds them as views into it, so a
    model always owns its own buffer.
    """

    layers: list[FrozenLayer]
    heads: list[Matrix]
    task_specs: list[TaskSpec]
    backward_passes: int = 0
    params: np.ndarray = field(init=False, repr=False)
    layout: Layout = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ads = [layer.adapter for layer in self.layers]
        self.layout = param_layout([ad.a.shape for ad in ads], [ad.b.shape for ad in ads],
                                   [h.shape for h in self.heads])
        sources = [ad.a for ad in ads] + [ad.b for ad in ads] + list(self.heads)
        self.params = np.concatenate([m.ravel() for m in sources])
        views = block_views(self.params, self.layout)
        self.layers = [
            FrozenLayer(layer.w0, LoraAdapter(views[BlockId("A", i)], views[BlockId("B", i)],
                                              layer.adapter.rank, layer.adapter.alpha))
            for i, layer in enumerate(self.layers)
        ]
        self.heads = [views[BlockId("HEAD", t)] for t in range(len(self.heads))]

    @property
    def num_tasks(self) -> int:
        return len(self.heads)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].w0.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.layers[-1].w0.shape[0]

    def block(self, bid: BlockId) -> Matrix:
        sl, shape = self.layout[bid]
        return self.params[sl].reshape(shape)

    def trainable_blocks(self) -> dict[BlockId, Matrix]:
        """Live views of every trainable matrix (adapters + all heads)."""
        return block_views(self.params, self.layout)

    def adapter_param_count(self) -> int:
        return sum(l.adapter.a.size + l.adapter.b.size for l in self.layers)

    def copy(self) -> "MultiTaskModel":
        """A model with its own params buffer (and its own w0 copies)."""
        return MultiTaskModel([FrozenLayer(l.w0.copy(), l.adapter) for l in self.layers],
                              self.heads, list(self.task_specs))


def build_model(
    layer_dims: list[int],
    rank: int,
    alpha: float,
    sigma_init: float,
    task_specs: list[TaskSpec],
    rng: Rng,
) -> MultiTaskModel:
    """Random frozen backbone (w0 ~ N(0, 1/fan_in)) with fresh adapters and heads.

    Heads start at N(0, sigma_init^2); adapters start with b = 0 so the model
    initially computes exactly what the backbone computes. Heads with equal
    output dims share one initial draw: identical tasks then produce identical
    gradients from the first step, instead of spuriously conflicting through
    independently-drawn tiny heads.
    """
    if len(layer_dims) < 2:
        raise ParameterError("layer_dims needs at least [in_dim, out_dim]")
    layers = []
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        w0 = gaussian_matrix(d_out, d_in, 1.0 / np.sqrt(d_in), rng)
        layers.append(FrozenLayer(w0=w0, adapter=init_adapter(d_out, d_in, rank, sigma_init, alpha, rng)))
    head_draws: dict[int, Matrix] = {}
    heads = []
    for spec in task_specs:
        if spec.out_dim not in head_draws:
            head_draws[spec.out_dim] = gaussian_matrix(spec.out_dim, layer_dims[-1], sigma_init, rng)
        heads.append(head_draws[spec.out_dim].copy())
    return MultiTaskModel(layers=layers, heads=heads, task_specs=list(task_specs))


def _check_finite(arr: Matrix, where: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite activations at {where}")


def forward_features(model: MultiTaskModel, x: Matrix) -> tuple[Matrix, list[dict]]:
    """tanh((w0 + s*b@a) h) through the stack; returns features and caches.

    Cache per layer: layer input h_in, the low-rank midterm a@h_in, and the
    activated output h_out (needed for the tanh derivative).
    """
    if x.ndim != 2 or x.shape[0] != model.in_dim:
        raise ShapeError(f"input {x.shape} does not match model input dim {model.in_dim}")
    h = x
    caches: list[dict] = []
    for i, layer in enumerate(model.layers):
        ad = layer.adapter
        with np.errstate(over="ignore", invalid="ignore"):
            ah = ad.a @ h
            z = layer.w0 @ h + ad.scale * (ad.b @ ah)
        _check_finite(z, f"layer {i}")
        h_out = np.tanh(z)
        caches.append({"h_in": h, "ah": ah, "h_out": h_out})
        h = h_out
    return h, caches


def _task_output(model: MultiTaskModel, task_id: int, features: Matrix) -> Matrix:
    if not 0 <= task_id < model.num_tasks:
        raise ParameterError(f"task_id {task_id} outside [0, {model.num_tasks})")
    out = model.heads[task_id] @ features
    _check_finite(out, f"head {task_id}")
    return out


def predict(model: MultiTaskModel, task_id: int, x: Matrix) -> Matrix:
    features, _ = forward_features(model, x)
    return _task_output(model, task_id, features)


def _check_batch(model: MultiTaskModel, batch: TaskBatch) -> None:
    if not 0 <= batch.task_id < model.num_tasks:
        raise ParameterError(f"task_id {batch.task_id} outside [0, {model.num_tasks})")
    spec = model.task_specs[batch.task_id]
    n = batch.x.shape[1]
    if n < 1:
        raise ParameterError("batch must contain at least one example")
    if spec.kind == REGRESSION:
        if batch.y.shape != (spec.out_dim, n):
            raise ShapeError(
                f"regression targets {batch.y.shape} do not match (out_dim={spec.out_dim}, n={n})"
            )
    elif spec.kind == CLASSIFICATION:
        if batch.y.shape != (n,):
            raise ShapeError(f"labels {batch.y.shape} do not match batch size {n}")
        if batch.y.min() < 0 or batch.y.max() >= spec.out_dim:
            raise ParameterError(f"labels outside [0, {spec.out_dim}) for task {batch.task_id}")
    else:
        raise ParameterError(f"unknown task kind {spec.kind!r}")


def _loss_and_output_grad(spec: TaskSpec, out: Matrix, y: np.ndarray) -> tuple[float, Matrix]:
    """Mean per-example loss and dloss/dout.

    Regression: half squared error summed over output dims, averaged over the
    batch. Classification: softmax cross-entropy averaged over the batch.
    """
    n = out.shape[1]
    if spec.kind == REGRESSION:
        resid = out - y
        loss = 0.5 * float(np.sum(resid * resid)) / n
        return loss, resid / n
    shifted = out - out.max(axis=0, keepdims=True)
    expz = np.exp(shifted)
    denom = expz.sum(axis=0, keepdims=True)
    log_probs = shifted - np.log(denom)
    idx = np.arange(n)
    loss = -float(np.sum(log_probs[y, idx])) / n
    grad = expz / denom
    grad[y, idx] -= 1.0
    return loss, grad / n


def task_loss(model: MultiTaskModel, batch: TaskBatch) -> float:
    _check_batch(model, batch)
    features, _ = forward_features(model, batch.x)
    out = _task_output(model, batch.task_id, features)
    loss, _ = _loss_and_output_grad(model.task_specs[batch.task_id], out, batch.y)
    return loss


def joint_loss(model: MultiTaskModel, batches: list[TaskBatch], weights: list[float] | None = None) -> float:
    weights = _check_weights(model, batches, weights)
    return sum(weights[b.task_id] * task_loss(model, b) for b in batches)


def _check_weights(
    model: MultiTaskModel, batches: list[TaskBatch], weights: list[float] | None
) -> list[float]:
    seen = sorted(b.task_id for b in batches)
    if seen != list(range(model.num_tasks)):
        raise ParameterError(
            f"need exactly one batch per task 0..{model.num_tasks - 1}, got task_ids {seen}"
        )
    if weights is None:
        weights = [1.0] * len(batches)
    if len(weights) != len(batches):
        raise ParameterError(f"{len(weights)} weights for {len(batches)} tasks")
    return [float(w) for w in weights]


def _outer(left: Matrix, right: Matrix, sizes: list[int] | None) -> np.ndarray:
    """left @ right.T; given task batch sizes, one product per task's column slice, stacked."""
    if sizes is None:
        return left @ right.T
    t, n = len(sizes), sizes[0]
    if sizes.count(n) == t:  # equal slices: one batched matmul over (T, rows, n) views
        return left.reshape(-1, t, n).transpose(1, 0, 2) @ right.reshape(-1, t, n).transpose(1, 2, 0)
    edges = np.cumsum([0] + sizes).tolist()
    return np.stack([left[:, a:b] @ right[:, a:b].T for a, b in zip(edges, edges[1:])])


def _backprop_stack(model: MultiTaskModel, caches: list[dict], delta_features: Matrix,
                    rows: np.ndarray, sizes: list[int] | None = None) -> None:
    """Propagate d(loss)/d(features) down the stack into the adapter columns of rows."""
    delta_h = delta_features
    for i in reversed(range(model.num_layers)):
        layer = model.layers[i]
        ad = layer.adapter
        cache = caches[i]
        dz = delta_h * (1.0 - cache["h_out"] * cache["h_out"])
        rows[:, model.layout[BlockId("B", i)][0]] = (
            ad.scale * _outer(dz, cache["ah"], sizes)).reshape(len(rows), -1)
        bt_dz = ad.b.T @ dz
        rows[:, model.layout[BlockId("A", i)][0]] = (
            ad.scale * _outer(bt_dz, cache["h_in"], sizes)).reshape(len(rows), -1)
        if i > 0:
            delta_h = layer.w0.T @ dz + ad.scale * (ad.a.T @ bt_dz)
    model.backward_passes += 1


def task_loss_and_gradient(model: MultiTaskModel, batch: TaskBatch) -> tuple[float, GradientStack]:
    """Loss plus a one-row stack: every adapter block and the task's own head."""
    _check_batch(model, batch)
    features, caches = forward_features(model, batch.x)
    out = _task_output(model, batch.task_id, features)
    loss, g_out = _loss_and_output_grad(model.task_specs[batch.task_id], out, batch.y)
    rows = np.zeros((1, model.params.size))
    _backprop_stack(model, caches, model.heads[batch.task_id].T @ g_out, rows)
    rows[0, model.layout[BlockId("HEAD", batch.task_id)][0]] = (g_out @ features.T).ravel()
    return loss, GradientStack([batch.task_id], rows, model.layout)


def task_gradient(model: MultiTaskModel, batch: TaskBatch) -> TaskGradient:
    return task_loss_and_gradient(model, batch)[1][0]


def joint_gradient(model: MultiTaskModel, batches: list[TaskBatch]) -> tuple[GradientStack, list[float]]:
    """Every task's gradient and loss from one forward and one backward pass.

    The batches run through the stack as one column-concatenated batch; only
    the heads run per task (out dims and kinds may differ). The feature delta
    propagates once, and each task's adapter gradient is the final outer
    product over its own column slice. Rows and losses are in task order.
    """
    _check_weights(model, batches, None)
    ordered = sorted(batches, key=lambda b: b.task_id)
    for b in ordered:
        _check_batch(model, b)
    sizes = [b.x.shape[1] for b in ordered]
    features, caches = forward_features(model, np.concatenate([b.x for b in ordered], axis=1))

    losses: list[float] = []
    rows = np.zeros((len(ordered), model.params.size))
    delta_features = np.empty_like(features)
    col = 0
    for r, (b, n) in enumerate(zip(ordered, sizes)):
        sl = slice(col, col + n)
        col += n
        out = _task_output(model, b.task_id, features[:, sl])
        loss, g_out = _loss_and_output_grad(model.task_specs[b.task_id], out, b.y)
        losses.append(loss)
        delta_features[:, sl] = model.heads[b.task_id].T @ g_out
        rows[r, model.layout[BlockId("HEAD", b.task_id)][0]] = (g_out @ features[:, sl].T).ravel()
    _backprop_stack(model, caches, delta_features, rows, sizes)
    return GradientStack([b.task_id for b in ordered], rows, model.layout), losses


def fd_gradient(model: MultiTaskModel, batch: TaskBatch, block: BlockId, h: float) -> Matrix:
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


def eval_metric(model: MultiTaskModel, batch: TaskBatch) -> float:
    """Held-out metric: accuracy for classification, plain MSE for regression."""
    _check_batch(model, batch)
    out = predict(model, batch.task_id, batch.x)
    spec = model.task_specs[batch.task_id]
    if spec.kind == CLASSIFICATION:
        return float(np.mean(out.argmax(axis=0) == batch.y))
    return float(np.mean((out - batch.y) ** 2))
