"""Small multi-task network: frozen linear stack with adapters, per-task heads.

The backbone is 1-3 frozen linear layers with a tanh after each one (smooth,
so finite-difference checks stay clean); each layer carries a low-rank
adapter. Per-task linear heads, all of one output size o, map the final d
features to task outputs; ``model.kinds[t]`` says whether task t is
regression or classification. The trainable parameters are the adapter
pairs plus the heads; w0 matrices are never touched.

The trainable parameters live in one float64 vector, ``model.params``, laid
out ``[A0, A1, ..., B0, B1, ..., HEAD0, HEAD1, ...]``; each adapter matrix is
a view into it, and ``model.heads`` is one (T, o, d) view of its contiguous
HEAD columns, so ``model.heads[t]`` is task t's head. ``model.layout``, built
once per model, is the one place that knows this order: every block's
columns and every projection scope's column groups. A ``GradientStack``
holds task gradients as the rows of one (T, R) matrix, each row only what
its task trains: the A = ``layout.heads.start`` adapter columns, then its
own (o, d) head, R = A + o*d at any T. ``stack_copies`` makes SINGLE_TASK's
T one-task models, adapters and one head each, whose params are the rows of
one (T, R) matrix, so that they train together.

Gradients are computed by hand-rolled reverse mode. For a layer with input h,
effective weight w0 + s*b@a (s = alpha/rank) and downstream delta dz:

    grad_b = s * dz @ (a @ h)^T
    grad_a = s * b^T @ dz @ h^T
    delta_h = w0^T @ dz + s * a^T @ (b^T @ dz)

All three gradient entry points share one body, ``_gradient_rows``: the T
equal-size batches run as one (T, k, n) input through one forward and one
backward pass, and the T heads they read run as one (T, o, d) stack: one
product for the outputs, one loss call that is vectorized within each task
kind, one product for the head gradients and one for d(loss)/d(features).
``task_loss_and_gradient`` is the T = 1 case; ``joint_gradient`` runs one
model, whose 2-D adapters broadcast over the T batches; ``stacked_gradient``
runs stacked models, with each layer's adapter and the heads read as
(T, r, k), (T, d, r) and (T, o, d) views of the parameter stack. Row t of
the result gets the outer products above from batch t's slab alone.

``eval_metric`` evaluates every task of a mode in one call: each task runs
its own (k, n) forward through ``forward_features``, the one copy of the
layer math, into activation and output arrays allocated once per call and
reused by every task.

Gradient code writes no parameter; its one side effect is the
backward_passes instrumentation counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adapter import FrozenLayer, LoraAdapter, init_adapter
from .dense import Matrix, Rng, gaussian_matrix
from .errors import NumericError, ParameterError, ShapeError

REGRESSION = "regression"
CLASSIFICATION = "classification"


FLAT = "FLAT"
PER_MATRIX = "PER_MATRIX"
PER_ROLE_CONCAT = "PER_ROLE_CONCAT"
SCOPES = (FLAT, PER_MATRIX, PER_ROLE_CONCAT)


def scope_labels(scope: str, num_layers: int) -> list[str]:
    """The labels of scope's groups on num_layers adapter layers, in group order:
    "flat"; every matrix by layer, A before B; or "A" then "B"."""
    if scope == FLAT:
        return ["flat"]
    if scope == PER_MATRIX:
        return [f"L{i}.{role}" for i in range(num_layers) for role in "AB"]
    if scope == PER_ROLE_CONCAT:
        return ["A", "B"]
    raise ParameterError(f"unknown projection scope {scope!r}; expected one of {SCOPES}")


class Layout:
    """The flat parameter format [A0, A1, ..., B0, B1, ..., HEAD0, HEAD1, ...].

    blocks maps each trainable matrix's name, as steps.csv writes it ("L0.A",
    "L0.B", "HEAD0"), to its (column slice, shape); a[i] and b[i] are layer
    i's A and B columns, heads the contiguous HEAD columns, each of
    head_shape. Each projection scope's groups are contiguous spans of
    adapter columns, labelled and ordered by ``scope_labels``, as the
    conflict report writes them. pair_entries, for the conflict report, indexes a flattened
    num_tasks x num_tasks Gram matrix: the entry of every task pair i < j in
    row-major order, then each pair's (i, i) entries, then its (j, j) ones.
    """

    def __init__(self, a_shapes: list[tuple[int, ...]], b_shapes: list[tuple[int, ...]],
                 head_shape: tuple[int, ...], num_tasks: int):
        layers = range(len(a_shapes))
        named = ([(f"L{i}.A", a_shapes[i]) for i in layers] + [(f"L{i}.B", b_shapes[i]) for i in layers]
                 + [(f"HEAD{t}", head_shape) for t in range(num_tasks)])
        self.blocks: dict[str, tuple[slice, tuple[int, ...]]] = {}
        start = 0
        for name, shape in named:
            stop = start + math.prod(shape)
            self.blocks[name] = (slice(start, stop), tuple(shape))
            start = stop
        self.size = start
        self.a = [self.blocks[f"L{i}.A"][0] for i in layers]
        self.b = [self.blocks[f"L{i}.B"][0] for i in layers]
        self.heads = slice(self.b[-1].stop, start)
        self.head_shape = tuple(head_shape)
        spans = {"flat": slice(0, self.heads.start), "A": slice(0, self.b[0].start),
                 "B": slice(self.b[0].start, self.heads.start),
                 **{name: sl for name, (sl, _) in self.blocks.items()}}
        self._scopes = {scope: [(label, spans[label]) for label in scope_labels(scope, len(layers))]
                        for scope in SCOPES}
        self.num_tasks = num_tasks
        rows, cols = np.triu_indices(num_tasks, 1)
        self.pair_entries = np.concatenate((rows * num_tasks + cols, rows * (num_tasks + 1),
                                            cols * (num_tasks + 1)))

    def groups(self, scope: str) -> list[tuple[str, slice]]:
        """The (label, column slice) groups that scope projects one at a time."""
        if scope not in self._scopes:
            raise ParameterError(f"unknown projection scope {scope!r}; expected one of {SCOPES}")
        return self._scopes[scope]


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
    """One task's gradient as views keyed by block name: every adapter block and
    the task's own head, in the given layout."""

    task_id: int
    blocks: dict[str, Matrix]
    layout: Layout = field(repr=False)


@dataclass(eq=False)
class GradientStack:
    """Several tasks' gradients as the rows of one (T, R) matrix for a parameter layout.

    Row t is task task_ids[t]'s full gradient: the layout's A adapter columns,
    then its own head, R = A + o*d. Indexing yields the row as a TaskGradient
    of block views.
    """

    task_ids: list[int]
    rows: np.ndarray
    layout: Layout

    def __getitem__(self, pos: int) -> TaskGradient:
        task_id = self.task_ids[pos]
        row = self.rows[pos]
        adapter_cols = self.layout.heads.start
        blocks = {name: row[sl].reshape(shape) for name, (sl, shape) in self.layout.blocks.items()
                  if sl.start < adapter_cols}
        blocks[f"HEAD{task_id}"] = row[adapter_cols:].reshape(self.layout.head_shape)
        return TaskGradient(task_id, blocks, self.layout)


@dataclass(eq=False)
class MultiTaskModel:
    """Frozen layers, adapters and heads; the trainable ones are views into params.

    heads is a (T, o, d) array: task t's head maps d features to o outputs
    (o class logits for a classification task); kinds[t] is REGRESSION or
    CLASSIFICATION. Construction builds the model's ``layout``, copies every
    adapter a/b and the heads into a params vector in that layout and
    rebinds them as views into it. That vector is a fresh buffer, or the
    given ``params`` (such as one row of a parameter stack), which the model
    then writes through.
    """

    layers: list[FrozenLayer]
    heads: np.ndarray
    kinds: list[str]
    backward_passes: int = 0
    params: np.ndarray | None = field(default=None, repr=False)
    layout: Layout = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ads = [layer.adapter for layer in self.layers]
        heads = np.asarray(self.heads)
        layout = self.layout = Layout([ad.a.shape for ad in ads], [ad.b.shape for ad in ads],
                                      heads.shape[1:], len(heads))
        sources = [ad.a for ad in ads] + [ad.b for ad in ads] + [heads]
        if self.params is None:
            self.params = np.empty(layout.size)
        np.concatenate([m.ravel() for m in sources], out=self.params)
        self.layers = [
            FrozenLayer(layer.w0, LoraAdapter(self.params[a].reshape(ad.a.shape),
                                              self.params[b].reshape(ad.b.shape), ad.rank, ad.alpha))
            for layer, ad, a, b in zip(self.layers, ads, layout.a, layout.b)
        ]
        self.heads = self.params[layout.heads].reshape(heads.shape)

    @property
    def num_tasks(self) -> int:
        return len(self.heads)

    @property
    def out_dim(self) -> int:
        return self.heads.shape[1]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].w0.shape[1]


def stack_copies(base: MultiTaskModel) -> list[MultiTaskModel]:
    """One one-task copy of base per task, base's adapters and the task's head
    and kind, whose params are the rows of one (T, A + o*d) matrix, each
    copy's ``params.base``. The copies share base's frozen w0 matrices."""
    stack = np.empty((base.num_tasks, base.layout.heads.start + base.heads[0].size))
    return [MultiTaskModel(base.layers, base.heads[t:t + 1], [kind], params=row)
            for t, (kind, row) in enumerate(zip(base.kinds, stack))]


def build_model(
    layer_dims: list[int],
    rank: int,
    alpha: float,
    sigma_init: float,
    kinds: list[str],
    out_dim: int,
    rng: Rng,
) -> MultiTaskModel:
    """Random frozen backbone (w0 ~ N(0, 1/fan_in)) with fresh adapters and
    one (out_dim, d) head per entry of kinds.

    Adapters start with b = 0 so the model initially computes exactly what
    the backbone computes. The heads are copies of one N(0, sigma_init^2)
    draw: identical tasks then produce identical gradients from the first
    step, instead of spuriously conflicting through independently-drawn tiny
    heads.
    """
    if len(layer_dims) < 2:
        raise ParameterError("layer_dims needs at least [in_dim, out_dim]")
    layers = []
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        w0 = gaussian_matrix(d_out, d_in, 1.0 / np.sqrt(d_in), rng)
        layers.append(FrozenLayer(w0=w0, adapter=init_adapter(d_out, d_in, rank, sigma_init, alpha, rng)))
    head = gaussian_matrix(out_dim, layer_dims[-1], sigma_init, rng)
    return MultiTaskModel(layers=layers, heads=np.broadcast_to(head, (len(kinds), *head.shape)),
                          kinds=list(kinds))


def _check_finite(arr: Matrix, where: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite activations at {where}")


def forward_features(model: MultiTaskModel, x: Matrix,
                     adapters: list[tuple[Matrix, Matrix]] | None = None,
                     buffers: list[tuple[Matrix, Matrix, Matrix]] | None = None
                     ) -> tuple[Matrix, list[dict]]:
    """tanh((w0 + s*b@a) h) through the stack; returns features and caches.

    x is (k, n), or (T, k, n) for T batches at once. adapters, one (a, b)
    pair per layer, replaces the model's own: stacked (T, r, k) and (T, d, r)
    pairs run T models at once on a (T, k, n) input. buffers, one (a@h, z,
    b@a@h) triple of output arrays per layer, receives the layer's products
    in place of fresh arrays, and its z array the layer's output.
    Cache per layer: the a and b used, layer input h_in, the low-rank midterm
    a@h_in, and the activated output h_out (needed for the tanh derivative).
    """
    if adapters is None:
        adapters = [(layer.adapter.a, layer.adapter.b) for layer in model.layers]
    if buffers is None:
        buffers = [(None, None, None)] * model.num_layers
    if x.shape[-2:-1] != (model.in_dim,):
        raise ShapeError(f"input {x.shape} does not match model input dim {model.in_dim}")
    h = x
    caches: list[dict] = []
    for i, (layer, (a, b), (ah_out, z_out, low_out)) in enumerate(
            zip(model.layers, adapters, buffers)):
        with np.errstate(over="ignore", invalid="ignore"):
            ah = np.matmul(a, h, out=ah_out)
            z = np.matmul(layer.w0, h, out=z_out)
            low = np.matmul(b, ah, out=low_out)
            low *= layer.adapter.scale
            z += low
        _check_finite(z, f"layer {i}")
        h_out = np.tanh(z, out=z)
        caches.append({"a": a, "b": b, "h_in": h, "ah": ah, "h_out": h_out})
        h = h_out
    return h, caches


def _stacked_targets(kinds: list[str], out_dim: int, ordered: list[TaskBatch],
                     n: int) -> list[tuple[str, list[int], np.ndarray]]:
    """(kind, positions in ordered, stacked targets) for each kind in kinds, batch p's.

    Checks the batches of n examples, one shape and range test per kind:
    n >= 1, (out_dim, n) regression targets and n class labels in
    [0, out_dim). An error names the offending task.
    """
    if n < 1:
        raise ParameterError("batch must contain at least one example")
    targets = []
    for kind, shape in ((REGRESSION, (out_dim, n)), (CLASSIFICATION, (n,))):
        pos = [p for p, k in enumerate(kinds) if k == kind]
        if not pos:
            continue
        ys = [ordered[p].y for p in pos]
        try:
            y = np.array(ys)  # as np.stack does, at a fraction of its call overhead
        except ValueError:  # the targets' shapes differ
            y = None
        if y is None or y.shape[1:] != shape:
            p, y = next((p, y) for p, y in zip(pos, ys) if y.shape != shape)
            raise ShapeError(f"{kind} targets {y.shape} of task {ordered[p].task_id} do not match {shape} "
                             f"(out_dim={out_dim}, n={n})")
        if kind == CLASSIFICATION:
            outside = ((y < 0) | (y >= out_dim)).any(axis=1)
            if outside.any():
                raise ParameterError(f"labels outside [0, {out_dim}) for task "
                                     f"{ordered[pos[int(outside.argmax())]].task_id}")
        targets.append((kind, pos, y))
    unknown = set(kinds) - {REGRESSION, CLASSIFICATION}
    if unknown:
        raise ParameterError(f"unknown task kind {sorted(unknown)[0]!r}")
    return targets


def _losses(out: np.ndarray,
            targets: list[tuple[str, list[int], np.ndarray]]) -> tuple[list[float], np.ndarray]:
    """Mean per-example loss of every (o, n) slab of out, and dloss/dout.

    Regression: half squared error summed over output dims, averaged over the
    batch. Classification: softmax cross-entropy averaged over the batch. The
    slabs of one kind are computed together, against that kind's stacked
    targets from ``_stacked_targets``.
    """
    n = out.shape[2]
    losses = np.empty(len(out))
    g_out = np.empty_like(out)
    for kind, pos, y in targets:
        if kind == REGRESSION:
            resid = out[pos] - y
            losses[pos] = 0.5 * (resid * resid).reshape(len(pos), -1).sum(axis=1) / n
            g_out[pos] = resid / n
            continue
        logits = out[pos]
        shifted = logits - logits.max(axis=1, keepdims=True)
        expz = np.exp(shifted)
        denom = expz.sum(axis=1, keepdims=True)
        log_probs = shifted - np.log(denom)
        picked = (np.arange(len(pos))[:, None], y, np.arange(n))
        losses[pos] = -log_probs[picked].sum(axis=1) / n
        grad = expz / denom
        grad[picked] -= 1.0
        g_out[pos] = grad / n
    return losses.tolist(), g_out


def _check_tasks(num_tasks: int, batches: list[TaskBatch]) -> list[TaskBatch]:
    """The batches in task order; ParameterError unless exactly one per task 0..num_tasks-1."""
    ordered = sorted(batches, key=lambda b: b.task_id)
    seen = [b.task_id for b in ordered]
    if seen != list(range(num_tasks)):
        raise ParameterError(
            f"need exactly one batch per task 0..{num_tasks - 1}, got task_ids {seen}"
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
        rows[:, model.layout.b[i]] = (
            scale * (dz @ cache["ah"].swapaxes(-1, -2))).reshape(len(rows), -1)
        bt_dz = cache["b"].swapaxes(-1, -2) @ dz
        rows[:, model.layout.a[i]] = (
            scale * (bt_dz @ cache["h_in"].swapaxes(-1, -2))).reshape(len(rows), -1)
        if i > 0:
            delta_h = layer.w0.T @ dz + scale * (cache["a"].swapaxes(-1, -2) @ bt_dz)


def _gradient_rows(model: MultiTaskModel, ordered: list[TaskBatch], heads: np.ndarray,
                   kinds: list[str], adapters: list[tuple[Matrix, Matrix]] | None = None
                   ) -> tuple[np.ndarray, list[float]]:
    """Row t and loss t: batch t's gradient through heads[t] (kind kinds[t]),
    all from one forward and one backward pass.

    The equal-size batches run as one (T, k, n) input. Without adapters,
    model's own 2-D adapters broadcast over the T batches; stacked (T, r, k)
    and (T, d, r) adapters give each batch its own model. The (T, o, d)
    heads run as one stack; row t is model's adapter columns, then head t.
    """
    sizes = [b.x.shape[1] for b in ordered]
    if sizes.count(sizes[0]) != len(sizes):
        raise ParameterError(f"need equal batch sizes, got {sizes}")
    targets = _stacked_targets(kinds, model.out_dim, ordered, sizes[0])
    features, caches = forward_features(model, np.array([b.x for b in ordered]), adapters)
    out = heads @ features
    finite = np.isfinite(out).all(axis=(1, 2))
    if not finite.all():
        raise NumericError(f"non-finite activations at head {ordered[int(finite.argmin())].task_id}")
    losses, g_out = _losses(out, targets)
    count, adapter_cols = len(ordered), model.layout.heads.start
    rows = np.empty((count, adapter_cols + heads[0].size))
    rows[:, adapter_cols:] = (g_out @ features.swapaxes(-1, -2)).reshape(count, -1)
    _backprop_stack(model, caches, heads.swapaxes(-1, -2) @ g_out, rows)
    return rows, losses


def task_loss_and_gradient(model: MultiTaskModel, batch: TaskBatch) -> tuple[float, GradientStack]:
    """Loss plus a one-row stack: every adapter block and the task's own head."""
    t = batch.task_id
    if not 0 <= t < model.num_tasks:
        raise ParameterError(f"task_id {t} outside [0, {model.num_tasks})")
    rows, losses = _gradient_rows(model, [batch], model.heads[t:t + 1], [model.kinds[t]])
    model.backward_passes += 1
    return losses[0], GradientStack([batch.task_id], rows, model.layout)


def joint_gradient(model: MultiTaskModel, batches: list[TaskBatch]) -> tuple[GradientStack, list[float]]:
    """Every task's gradient and loss from one forward and one backward pass.

    The model's adapters run over all T batches at once; rows and losses are
    in task order.
    """
    ordered = _check_tasks(model.num_tasks, batches)
    rows, losses = _gradient_rows(model, ordered, model.heads, model.kinds)
    model.backward_passes += 1
    return GradientStack([b.task_id for b in ordered], rows, model.layout), losses


def stacked_gradient(models: list[MultiTaskModel],
                     batches: list[TaskBatch]) -> tuple[np.ndarray, list[float]]:
    """Model t's gradient and loss on task t's batch, for every t at once (SINGLE_TASK).

    The one-task models are the rows of one (T, A + o*d) parameter stack
    (``stack_copies``); each layer's A and B run as (T, r, k) and (T, d, r)
    views of the stack, and the heads as one (T, o, d) view. Row t of the
    returned (T, A + o*d) matrix is model t's gradient.
    """
    base = models[0]
    stack = base.params.base
    if stack is None or stack.shape != (len(models), base.params.size) or not all(
            m.num_tasks == 1 and m.params.base is stack and np.may_share_memory(m.params, row)
            for m, row in zip(models, stack)):
        raise ParameterError(f"the params of these {len(models)} models are not the rows, in "
                             "order, of one parameter stack (see stack_copies)")
    count = len(models)
    ordered = _check_tasks(count, batches)
    adapters = [(stack[:, a].reshape(count, *layer.adapter.a.shape),
                 stack[:, b].reshape(count, *layer.adapter.b.shape))
                for layer, a, b in zip(base.layers, base.layout.a, base.layout.b)]
    heads = stack[:, base.layout.heads].reshape(count, *base.layout.head_shape)
    rows, losses = _gradient_rows(base, ordered, heads, [m.kinds[0] for m in models], adapters)
    for m in models:
        m.backward_passes += 1
    return rows, losses


def eval_metric(models: list[MultiTaskModel], batches: list[TaskBatch]) -> list[float]:
    """Held-out metric of every batch: accuracy for classification, plain MSE
    for regression.

    Batch t runs through models[t] and its task's head (a one-task model's
    only head): one call evaluates a mode, with SINGLE_TASK's model of each
    task or the one shared model repeated. Each batch runs its own (k, n)
    forward; the activation and output arrays are allocated once per call
    and reused by every batch.
    """
    if len(models) != len(batches) or not batches:
        raise ParameterError(f"need one model per batch, got {len(models)} models "
                             f"for {len(batches)} batches")
    sizes = [b.x.shape[-1] for b in batches]
    if sizes.count(sizes[0]) != len(sizes):
        raise ParameterError(f"need equal batch sizes, got {sizes}")
    base = models[0]
    n = sizes[0]
    heads = [0 if m.num_tasks == 1 else b.task_id for m, b in zip(models, batches)]
    bad = next((b.task_id for m, b, h in zip(models, batches, heads) if not 0 <= h < m.num_tasks), None)
    if bad is not None:
        raise ParameterError(f"task_id {bad} outside [0, {base.num_tasks})")
    kinds = [m.kinds[h] for m, h in zip(models, heads)]
    _stacked_targets(kinds, base.out_dim, batches, n)
    buffers = [(np.empty((layer.adapter.rank, n)), np.empty((len(layer.w0), n)),
                np.empty((len(layer.w0), n))) for layer in base.layers]
    out = np.empty((base.out_dim, n))
    metrics = []
    for model, batch, head, kind in zip(models, batches, heads, kinds):
        features, _ = forward_features(model, batch.x, buffers=buffers)
        np.matmul(model.heads[head], features, out=out)
        _check_finite(out, f"head {batch.task_id}")
        if kind == CLASSIFICATION:
            metrics.append(float(np.mean(out.argmax(axis=0) == batch.y)))
        else:
            np.subtract(out, batch.y, out=out)
            metrics.append(float(np.mean(np.square(out, out=out))))
    return metrics
