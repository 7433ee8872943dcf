"""Small multi-task network: frozen linear stack with adapters, per-task heads.

The backbone is 1-3 frozen linear layers with a tanh after each one (smooth,
so finite-difference checks stay clean); each layer carries a low-rank
adapter. Per-task linear heads map the final features to task outputs. The
trainable parameters are the adapter pairs plus the heads; w0 matrices are
never touched.

The trainable parameters live in one float64 vector, ``model.params``, laid
out ``[A0, A1, ..., B0, B1, ..., HEAD0, HEAD1, ...]``; each adapter matrix and
head is a view into it. A ``GradientStack`` holds task gradients as the rows
of one (T, P) matrix in the same layout. ``stack_copies`` makes T models
whose params are the rows of one (T, P) matrix, so that SINGLE_TASK's
independent models train together.

Gradients are computed by hand-rolled reverse mode. For a layer with input h,
effective weight w0 + s*b@a (s = alpha/rank) and downstream delta dz:

    grad_b = s * dz @ (a @ h)^T
    grad_a = s * b^T @ dz @ h^T
    delta_h = w0^T @ dz + s * a^T @ (b^T @ dz)

All three gradient entry points share one body, ``_gradient_rows``: the T
equal-size batches run as one (T, k, n) input through one forward and one
backward pass, and only the heads run per task. ``task_loss_and_gradient``
is the T = 1 case; ``joint_gradient`` runs one model, whose 2-D adapters
broadcast over the T batches; ``stacked_gradient`` runs stacked models, with
each layer's adapter read as (T, r, k) and (T, d, r) views of the parameter
stack. Row t of the result gets the outer products above from batch t's
slab alone. ``fd_gradient`` provides the independent central-difference
oracle used by the tests.

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

    Construction copies every adapter a/b and head into a params vector laid
    out by ``layout`` and rebinds them as views into it. That vector is a
    fresh buffer, or the given ``params`` (such as one row of a parameter
    stack), which the model then writes through.
    """

    layers: list[FrozenLayer]
    heads: list[Matrix]
    task_specs: list[TaskSpec]
    backward_passes: int = 0
    params: np.ndarray | None = field(default=None, repr=False)
    layout: Layout = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ads = [layer.adapter for layer in self.layers]
        self.layout = param_layout([ad.a.shape for ad in ads], [ad.b.shape for ad in ads],
                                   [h.shape for h in self.heads])
        sources = [ad.a for ad in ads] + [ad.b for ad in ads] + list(self.heads)
        if self.params is None:
            self.params = np.empty(sum(m.size for m in sources))
        np.concatenate([m.ravel() for m in sources], out=self.params)
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


def stack_copies(base: MultiTaskModel, count: int) -> list[MultiTaskModel]:
    """count copies of base whose params are the rows of one (count, P) matrix,
    each copy's ``params.base``. The copies share base's frozen w0 matrices."""
    stack = np.empty((count, base.params.size))
    return [MultiTaskModel(base.layers, base.heads, list(base.task_specs), params=row)
            for row in stack]


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
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite activations at {where}")


def forward_features(model: MultiTaskModel, x: Matrix,
                     adapters: list[tuple[Matrix, Matrix]] | None = None) -> tuple[Matrix, list[dict]]:
    """tanh((w0 + s*b@a) h) through the stack; returns features and caches.

    x is (k, n), or (T, k, n) for T batches at once. adapters, one (a, b)
    pair per layer, replaces the model's own: stacked (T, r, k) and (T, d, r)
    pairs run T models at once on a (T, k, n) input.
    Cache per layer: the a and b used, layer input h_in, the low-rank midterm
    a@h_in, and the activated output h_out (needed for the tanh derivative).
    """
    if adapters is None:
        adapters = [(layer.adapter.a, layer.adapter.b) for layer in model.layers]
    if x.shape[-2:-1] != (model.in_dim,):
        raise ShapeError(f"input {x.shape} does not match model input dim {model.in_dim}")
    h = x
    caches: list[dict] = []
    for i, (layer, (a, b)) in enumerate(zip(model.layers, adapters)):
        with np.errstate(over="ignore", invalid="ignore"):
            ah = a @ h
            z = layer.w0 @ h + layer.adapter.scale * (b @ ah)
        _check_finite(z, f"layer {i}")
        h_out = np.tanh(z)
        caches.append({"a": a, "b": b, "h_in": h, "ah": ah, "h_out": h_out})
        h = h_out
    return h, caches


def _task_output(model: MultiTaskModel, task_id: int, features: Matrix) -> Matrix:
    if not 0 <= task_id < model.num_tasks:
        raise ParameterError(f"task_id {task_id} outside [0, {model.num_tasks})")
    out = model.heads[task_id] @ features
    _check_finite(out, f"head {task_id}")
    return out


def _head_backward(model: MultiTaskModel, batch: TaskBatch, features: Matrix,
                   row: np.ndarray) -> tuple[float, Matrix]:
    """batch's loss through its task's head on features; writes the head
    gradient into row and returns the loss and d(loss)/d(features)."""
    out = _task_output(model, batch.task_id, features)
    loss, g_out = _loss_and_output_grad(model.task_specs[batch.task_id], out, batch.y)
    row[model.layout[BlockId("HEAD", batch.task_id)][0]] = (g_out @ features.T).ravel()
    return loss, model.heads[batch.task_id].T @ g_out


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
        loss = 0.5 * float((resid * resid).sum()) / n
        return loss, resid / n
    shifted = out - out.max(axis=0, keepdims=True)
    expz = np.exp(shifted)
    denom = expz.sum(axis=0, keepdims=True)
    log_probs = shifted - np.log(denom)
    idx = np.arange(n)
    loss = -float(log_probs[y, idx].sum()) / n
    grad = expz / denom
    grad[y, idx] -= 1.0
    return loss, grad / n


def task_loss(model: MultiTaskModel, batch: TaskBatch) -> float:
    _check_batch(model, batch)
    features, _ = forward_features(model, batch.x)
    out = _task_output(model, batch.task_id, features)
    loss, _ = _loss_and_output_grad(model.task_specs[batch.task_id], out, batch.y)
    return loss


def _check_tasks(model: MultiTaskModel, batches: list[TaskBatch]) -> list[TaskBatch]:
    """The batches in task order; ParameterError unless there is exactly one per task."""
    ordered = sorted(batches, key=lambda b: b.task_id)
    seen = [b.task_id for b in ordered]
    if seen != list(range(model.num_tasks)):
        raise ParameterError(
            f"need exactly one batch per task 0..{model.num_tasks - 1}, got task_ids {seen}"
        )
    return ordered


def _backprop_stack(model: MultiTaskModel, caches: list[dict], delta_features: np.ndarray,
                    rows: np.ndarray) -> None:
    """Propagate d(loss)/d(features), (T, d, n), down the stack into the adapter
    columns of rows: row t gets the outer products of batch t's slab."""
    delta_h = delta_features
    for i in reversed(range(model.num_layers)):
        layer = model.layers[i]
        scale = layer.adapter.scale
        cache = caches[i]
        dz = delta_h * (1.0 - cache["h_out"] * cache["h_out"])
        rows[:, model.layout[BlockId("B", i)][0]] = (
            scale * (dz @ cache["ah"].swapaxes(-1, -2))).reshape(len(rows), -1)
        bt_dz = cache["b"].swapaxes(-1, -2) @ dz
        rows[:, model.layout[BlockId("A", i)][0]] = (
            scale * (bt_dz @ cache["h_in"].swapaxes(-1, -2))).reshape(len(rows), -1)
        if i > 0:
            delta_h = layer.w0.T @ dz + scale * (cache["a"].swapaxes(-1, -2) @ bt_dz)


def _gradient_rows(models: list[MultiTaskModel], ordered: list[TaskBatch],
                   adapters: list[tuple[Matrix, Matrix]] | None = None
                   ) -> tuple[np.ndarray, list[float]]:
    """Row t and loss t: batch t's gradient through models[t]'s head, all from
    one forward and one backward pass.

    The equal-size batches run as one (T, k, n) input. Without adapters,
    models[0]'s own 2-D adapters broadcast over the T batches; stacked
    (T, r, k) and (T, d, r) adapters give each batch its own model. Only the
    heads run per batch (out dims and kinds may differ).
    """
    sizes = [b.x.shape[1] for b in ordered]
    if sizes.count(sizes[0]) != len(sizes):
        raise ParameterError(f"need equal batch sizes, got {sizes}")
    for m, b in zip(models, ordered):
        _check_batch(m, b)
    base = models[0]
    features, caches = forward_features(base, np.stack([b.x for b in ordered]), adapters)
    losses: list[float] = []
    rows = np.zeros((len(ordered), base.params.size))
    delta_features = np.empty_like(features)
    for t, (m, b) in enumerate(zip(models, ordered)):
        loss, delta_features[t] = _head_backward(m, b, features[t], rows[t])
        losses.append(loss)
    _backprop_stack(base, caches, delta_features, rows)
    return rows, losses


def task_loss_and_gradient(model: MultiTaskModel, batch: TaskBatch) -> tuple[float, GradientStack]:
    """Loss plus a one-row stack: every adapter block and the task's own head."""
    rows, losses = _gradient_rows([model], [batch])
    model.backward_passes += 1
    return losses[0], GradientStack([batch.task_id], rows, model.layout)


def joint_gradient(model: MultiTaskModel, batches: list[TaskBatch]) -> tuple[GradientStack, list[float]]:
    """Every task's gradient and loss from one forward and one backward pass.

    The model's adapters run over all T batches at once; rows and losses are
    in task order.
    """
    ordered = _check_tasks(model, batches)
    rows, losses = _gradient_rows([model] * len(ordered), ordered)
    model.backward_passes += 1
    return GradientStack([b.task_id for b in ordered], rows, model.layout), losses


def stacked_gradient(models: list[MultiTaskModel],
                     batches: list[TaskBatch]) -> tuple[np.ndarray, list[float]]:
    """Model t's gradient and loss on task t's batch, for every t at once (SINGLE_TASK).

    The models are the rows of one parameter stack (``stack_copies``); each
    layer's A and B run as (T, r, k) and (T, d, r) views of the stack. Row t
    of the returned (T, P) matrix is model t's gradient.
    """
    base = models[0]
    stack = base.params.base
    if stack is None or stack.shape != (len(models), base.params.size) or not all(
            m.params.base is stack and np.may_share_memory(m.params, row)
            for m, row in zip(models, stack)):
        raise ParameterError(f"the params of these {len(models)} models are not the rows, in "
                             "order, of one parameter stack (see stack_copies)")
    ordered = _check_tasks(base, batches)
    if len(models) != len(ordered):
        raise ParameterError(f"need one stacked model per task, got {len(models)} models "
                             f"for {len(ordered)} tasks")

    def view(bid: BlockId) -> np.ndarray:  # one block of every model, (T, *shape)
        sl, shape = base.layout[bid]
        return stack[:, sl].reshape(len(stack), *shape)

    adapters = [(view(BlockId("A", i)), view(BlockId("B", i))) for i in range(base.num_layers)]
    rows, losses = _gradient_rows(models, ordered, adapters)
    for m in models:
        m.backward_passes += 1
    return rows, losses


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
