"""Small multi-task network: frozen linear stack with adapters, per-task heads.

The backbone is 1-3 frozen linear layers with a tanh after each one (smooth,
so finite-difference checks stay clean); each layer carries a low-rank
adapter. Per-task linear heads, all of one output size o, map the final d
features to task outputs; ``model.kinds[t]`` says whether task t is
regression or classification. Only the adapter pairs and the heads train.

A model's trainable parameters live in one float64 vector, ``model.params``,
laid out ``[A0, A1, ..., B0, B1, ..., HEAD0, HEAD1, ...]`` by its
``layout``; each adapter matrix is a view into it, and ``model.heads`` one
(H, o, d) view. Every mode trains one ``ParamStack``: R runs of a model as
the rows of one (R, P) matrix, R*H = T, JOINT and the ORTHO modes one run of
T heads and SINGLE_TASK T runs of one. Task gradients are the rows of a
``GradientStack``: row t the A = ``layout.heads.start`` adapter columns of
task t's run, then head t.

Gradients are computed by hand-rolled reverse mode. For a layer with input h,
effective weight w0 + s*b@a (s = alpha/rank) and downstream delta dz:

    grad_b = s * dz @ (a @ h)^T
    grad_a = s * b^T @ dz @ h^T
    delta_h = w0^T @ dz + s * a^T @ (b^T @ dz)

``joint_gradient`` (a stack, over a ``StepBatch`` of T equal-size batches
that a run gathers from its checked train pool) is the one gradient body,
which ``task_loss_and_gradient`` runs on a throwaway one-run stack: one
forward and one backward pass, the heads as one (T, o, d) stack, every
gradient computed by ``np.matmul`` straight into a view of the (T, A + o*d)
rows, the A adapter columns scaled by s once (a model's layers share one s).
A stack builds what its step reuses, its ``StepBuffers``, on its first step
and again on a batch of another shape, so a step's rows, projection and
update hold until the next step on that stack; the step's forward is the
training-time layer math, w0 h + s*b@(a h), whose a@h the backward pass
reads. The step computes dloss/dout, not the losses, which only the log
reads: it leaves their operands in its head output buffer (residuals,
logits), and ``window_losses`` computes the losses of a window of steps in
one batched call. ``eval_metric`` evaluates every task of a stack in one
call through each layer's merged weight w0 + s*b@a, built once per call, as
a deployed LoRA layer runs: one product per layer, into a run's
``EvalPool`` buffers. A step and an eval call each run inside one
``np.errstate`` that silences overflow and invalid values: their finiteness
guards (``dense.all_finite``, one BLAS pass unless it fails) raise a
NumericError naming the layer, head or task instead, with no numpy warning.
Gradient code writes no parameter; its one side effect is the
backward_passes counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adapter import FrozenLayer, LoraAdapter, init_adapter
from .config import CLASSIFICATION, FLAT, PER_MATRIX, PER_ROLE_CONCAT, REGRESSION
from .dense import Matrix, Rng, all_finite, gaussian_matrix
from .errors import NumericError, ParameterError, ShapeError

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
    task_ids (0..num_tasks-1) and ``labels(scope)`` are built once, so every
    gradient stack of a run shares one list of each.
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
        self._labels = {scope: [label for label, _ in groups] for scope, groups in self._scopes.items()}
        self.num_tasks = num_tasks
        self.task_ids = list(range(num_tasks))
        rows, cols = np.triu_indices(num_tasks, 1)
        self.pair_entries = np.concatenate((rows * num_tasks + cols, rows * (num_tasks + 1),
                                            cols * (num_tasks + 1)))

    def groups(self, scope: str) -> list[tuple[str, slice]]:
        """The (label, column slice) groups that scope projects one at a time."""
        if scope not in self._scopes:
            raise ParameterError(f"unknown projection scope {scope!r}; expected one of {SCOPES}")
        return self._scopes[scope]

    def labels(self, scope: str) -> list[str]:
        """The labels of scope's groups, in group order; one shared list per scope."""
        self.groups(scope)  # ParameterError for an unknown scope
        return self._labels[scope]


@dataclass
class StepBatch:
    """T tasks' equal-size batches, stacked: the gradient code's only input, a
    run's held-out set and, as views, its train pool.

    x is a (T, k, n) array, x[p] the inputs of task first + p; targets holds,
    for each task kind present, regression before classification, (kind, its
    positions p in order, their targets stacked): (R, o, n) regression
    values or (C, n) class labels. ``check_batch`` checks one.
    """

    x: np.ndarray
    targets: list[tuple[str, list[int], np.ndarray]]
    first: int = 0


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
    _groups: dict = field(default_factory=dict, init=False, repr=False)

    def group_views(self, scope: str) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each of scope's groups as the (T, width) view V of its columns and V's
        transpose, in group order; built once per stack and scope."""
        if scope not in self._groups:
            self._groups[scope] = [(v, v.T) for v in (self.rows[:, cols]
                                                      for _, cols in self.layout.groups(scope))]
        return self._groups[scope]

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
    CLASSIFICATION. Construction builds the model's ``layout`` unless given
    one, copies every adapter a/b and the heads into a params vector in that
    layout and rebinds them as views into it. That vector is a fresh buffer,
    or the given ``params`` (one row of a ``ParamStack``), which the model
    then writes through. Every layer's adapter has the same scale alpha/rank,
    or construction raises ParameterError.
    """

    layers: list[FrozenLayer]
    heads: np.ndarray
    kinds: list[str]
    backward_passes: int = 0
    params: np.ndarray | None = field(default=None, repr=False)
    layout: Layout | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        ads = [layer.adapter for layer in self.layers]
        if len({ad.scale for ad in ads}) > 1:
            raise ParameterError(f"adapter scales alpha / rank {[ad.scale for ad in ads]} differ")
        heads = np.asarray(self.heads)
        layout = self.layout = self.layout or Layout(
            [ad.a.shape for ad in ads], [ad.b.shape for ad in ads], heads.shape[1:], len(heads))
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
    def in_dim(self) -> int:
        return self.layers[0].w0.shape[1]


@dataclass(eq=False)
class ParamStack:
    """R runs' parameters as the rows of one (R, P) matrix, with views built once.

    models[r] is run r, a MultiTaskModel over row r with H heads, R*H = T;
    heads is every run's heads as one (T, o, d) view, head t run t // H's;
    adapters holds each layer's (R, r, k) A and (R, d, r) B views. task_ids
    are the T tasks of the gradient rows, 0..T-1. step is what the stack's
    step reuses, built by ``joint_gradient``.
    """

    matrix: np.ndarray
    models: list[MultiTaskModel]
    adapters: list[tuple[np.ndarray, np.ndarray]]
    heads: np.ndarray
    task_ids: list[int]
    step: StepBuffers | None = field(default=None, repr=False)


class StepBuffers:
    """What every step of a stack reuses, for one (T, k, n) input shape:
    forward[i] is layer i's w0, the stack's (R, r, k) a and (R, d, r) b
    views, then its (T, r, n) a@h, (T, d, n) z and b@a@h output arrays;
    backward[i] the transposes of w0, a, b, a@h and the layer input (None:
    the step's x) that its backward pass reads, then its A and B views of
    the rows; out is the (T, o, n) head output, which keeps the step's loss
    operands, and g_out its dloss/dout; grads holds the rows, with
    (T, o, d) head and (T, A) adapter views. projected is surgery's output,
    update merge's: the (1, P) update of one run of T heads (None for
    one-head runs)."""

    def __init__(self, stack: ParamStack, shape: tuple[int, ...]):
        model, tasks, layout = stack.models[0], len(stack.heads), stack.models[0].layout
        _check_input(model, shape)
        self.shape, self.scale, n = shape, model.layers[0].adapter.scale, shape[-1]
        self.forward = forward = [
            (layer.w0, a, b, np.empty((tasks, a.shape[1], n)), *np.empty((2, tasks, len(layer.w0), n)))
            for layer, (a, b) in zip(model.layers, stack.adapters)]
        rows = np.empty((tasks, layout.heads.start + stack.heads[0].size))
        self.backward = [(w0.T, a.swapaxes(1, 2), b.swapaxes(1, 2), ah.swapaxes(1, 2),
                          forward[i - 1][4].swapaxes(1, 2) if i else None,
                          rows[:, layout.a[i]].reshape(tasks, *a.shape[1:]),
                          rows[:, layout.b[i]].reshape(tasks, *b.shape[1:]))
                         for i, (w0, a, b, ah, _, _) in enumerate(forward)]
        self.out, self.g_out = np.empty((2, tasks, model.out_dim, n))
        self.heads_t, self.features_t = stack.heads.swapaxes(1, 2), forward[-1][4].swapaxes(1, 2)
        self.grads = GradientStack(stack.task_ids, rows, layout)
        self.head_grads = rows[:, layout.heads.start:].reshape(stack.heads.shape)
        self.adapter_grads = rows[:, :layout.heads.start]
        self.projected = GradientStack(stack.task_ids, np.empty_like(rows), layout)
        self.update = np.empty((1, layout.size)) if layout.num_tasks > 1 else None


def stack_runs(base: MultiTaskModel, runs: int) -> ParamStack:
    """base's parameters as 1 run with all T heads (JOINT and the ORTHO modes)
    or T runs with one head each (SINGLE_TASK), each run a copy of base's
    adapters; the runs share base's frozen w0 matrices and one Layout."""
    tasks = base.num_tasks
    if runs not in (1, tasks):
        raise ParameterError(f"a model of {tasks} tasks stacks as 1 or {tasks} runs, not {runs}")
    h = tasks // runs
    ads = [layer.adapter for layer in base.layers]
    layout = base.layout if runs == 1 else Layout(
        [ad.a.shape for ad in ads], [ad.b.shape for ad in ads], base.layout.head_shape, 1)
    matrix = np.empty((runs, layout.size))
    models = [MultiTaskModel(base.layers, base.heads[r * h:r * h + h], base.kinds[r * h:r * h + h],
                             params=matrix[r], layout=layout) for r in range(runs)]
    adapters = [(matrix[:, a].reshape(runs, *ad.a.shape), matrix[:, b].reshape(runs, *ad.b.shape))
                for ad, a, b in zip(ads, layout.a, layout.b)]
    heads = matrix[:, layout.heads].reshape(tasks, *layout.head_shape)
    return ParamStack(matrix, models, adapters, heads, list(range(tasks)))


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
    if not all_finite(arr):
        raise NumericError(f"non-finite activations at {where}")


def _check_input(model: MultiTaskModel, shape: tuple[int, ...]) -> None:
    if shape[-2:-1] != (model.in_dim,):
        raise ShapeError(f"input {shape} does not match model input dim {model.in_dim}")


def check_batch(batch: StepBatch, kinds: list[str], out_dim: int) -> None:
    """Check batch for tasks of kinds, slab p task batch.first + p of kind
    kinds[p], with out_dim outputs: one slab per task, each task's kind and
    position in the targets, n >= 1 examples, the (R, out_dim, n) and (C, n)
    target shapes and labels in [0, out_dim), one test per kind over its
    stacked array. An error names a task."""
    unknown = set(kinds) - {REGRESSION, CLASSIFICATION}
    if unknown:
        raise ParameterError(f"unknown task kind {sorted(unknown)[0]!r}")
    n, first = batch.x.shape[-1], batch.first
    if len(batch.x) != len(kinds) or n < 1:
        raise ParameterError(f"need {len(kinds)} tasks' batches of at least one example, "
                             f"got inputs of shape {batch.x.shape}")
    listed = [(kind, list(pos)) for kind, pos, _ in batch.targets]
    want = [(kind, [p for p, k in enumerate(kinds) if k == kind])
            for kind in (REGRESSION, CLASSIFICATION) if kind in kinds]
    if listed != want:
        held = {p: kind for kind, pos in listed for p in pos}
        p = next((p for p, kind in enumerate(kinds) if held.get(p) != kind), None)
        raise ParameterError(f"targets list tasks {listed}, not {want}" if p is None
                             else f"task {first + p} has {held.get(p)} targets, not {kinds[p]}")
    for kind, pos, y in batch.targets:
        shape = (len(pos), out_dim, n) if kind == REGRESSION else (len(pos), n)
        if y.shape != shape:
            raise ShapeError(f"{kind} targets {y.shape} of task {first + pos[0]} do not match "
                             f"{shape} (out_dim={out_dim}, n={n})")
        if kind == CLASSIFICATION:
            outside = ((y < 0) | (y >= out_dim)).any(axis=1)
            if outside.any():
                raise ParameterError(f"labels outside [0, {out_dim}) for task "
                                     f"{first + pos[int(outside.argmax())]}")


def _output_gradient(out: np.ndarray, targets: list[tuple[str, list[int], np.ndarray]],
                     g_out: np.ndarray) -> None:
    """dloss/dout of every (o, n) slab of out into g_out, leaving in out what the
    slab's loss needs (``window_losses``): a regression slab's residual out - y,
    a classification slab's logits as they are. The slabs of one kind are
    computed together, against that kind's stacked targets; when one kind
    covers every slab, in place, with no scatter."""
    if len(targets) == 1:
        _kind_gradient(targets[0][0], targets[0][2], out, g_out)
        return
    for kind, pos, y in targets:
        slabs, grad = out[pos], np.empty((len(pos), *out.shape[1:]))
        _kind_gradient(kind, y, slabs, grad)
        out[pos], g_out[pos] = slabs, grad


def _kind_gradient(kind: str, y: np.ndarray, out: np.ndarray, g_out: np.ndarray) -> None:
    """``_output_gradient`` of (R, o, n) slabs out of one kind, against its
    stacked targets y. Regression: half squared error summed over output
    dims, averaged over the batch. Classification: softmax cross-entropy
    averaged over the batch."""
    n = out.shape[2]
    if kind == REGRESSION:
        np.subtract(out, y, out=out)
        np.divide(out, n, out=g_out)
        return
    expz = out - out.max(axis=1, keepdims=True)
    np.exp(expz, out=expz)
    np.divide(expz, expz.sum(axis=1, keepdims=True), out=g_out)
    g_out[np.arange(len(y))[:, None], y, np.arange(n)] -= 1.0
    g_out /= n


@np.errstate(over="ignore", invalid="ignore")  # the caller checks the losses
def window_losses(saved: np.ndarray,
                  steps: list[list[tuple[str, list[int], np.ndarray]]]) -> np.ndarray:
    """The (k, T) mean per-example losses of the (k, T, o, n) slabs that k steps
    left in their head output buffer (``_output_gradient``), against the k
    steps' StepBatch targets: one batched computation per kind over every
    step of the window, which reads the class labels and, for regression,
    only the residuals. Each slab's loss has the bits of the same slab's
    loss computed on its own. A loss that overflows is inf, with no numpy
    warning."""
    losses, n = np.empty(saved.shape[:2]), saved.shape[3]
    for i, (kind, pos, _) in enumerate(steps[0]):
        slabs = (saved if len(pos) == losses.shape[1] else saved[:, pos]).reshape(-1, *saved.shape[2:])
        if kind == REGRESSION:  # the slabs are residuals
            kind_losses = 0.5 * np.add.reduce((slabs * slabs).reshape(len(slabs), -1), axis=1) / n
        else:  # the slabs are logits, against the steps' (k, C, n) labels
            labels = np.array([step[i][2] for step in steps]).reshape(len(slabs), n)
            shifted = slabs - slabs.max(axis=1, keepdims=True)
            picked = shifted[np.arange(len(slabs))[:, None], labels, np.arange(n)]
            kind_losses = -np.add.reduce(picked - np.log(np.exp(shifted).sum(axis=1)), axis=1) / n
        losses[:, pos] = kind_losses.reshape(len(saved), -1)
    return losses


def task_loss_and_gradient(model: MultiTaskModel, batch: StepBatch) -> tuple[float, GradientStack]:
    """Loss plus a one-row stack for batch, one batch of task batch.first: every
    adapter block and the task's own head, from ``joint_gradient`` on a
    throwaway one-run stack of model's params, and the loss from
    ``window_losses`` on the one step it left."""
    t = batch.first
    if not 0 <= t < model.num_tasks:
        raise ParameterError(f"task_id {t} outside [0, {model.num_tasks})")
    check_batch(batch, [model.kinds[t]], model.out_dim)
    adapters = [(layer.adapter.a[None], layer.adapter.b[None]) for layer in model.layers]
    throwaway = ParamStack(model.params[None], [model], adapters, model.heads[t:t + 1], [t])
    grads = joint_gradient(throwaway, batch)
    return float(window_losses(throwaway.step.out[None], [batch.targets])[0, 0]), grads


def joint_gradient(stack: ParamStack, batch: StepBatch) -> GradientStack:
    """Every task's gradient from one forward and one backward pass.

    Each run's adapters run over its tasks' batches of the step, as the
    stack's (R, r, k) and (R, d, r) views; each layer's forward is the
    training-time tanh(w0 h + s*b@(a h)) into stack.step's buffers, whose
    a@h the backward pass reads. Rows are in task order, row t the adapter
    columns of task t's run, then head t, in stack.step's rows. The losses
    are not computed: stack.step.out keeps what they need until the next
    step (``_output_gradient``), for ``window_losses``.
    The backward pass writes each layer's d(loss)/d(output) over its b@a@h
    buffer, dz over its z and b^T dz over its a@h, once it is done with each.
    Overflow and invalid values raise no numpy warning anywhere in the call:
    a non-finite layer or head output raises NumericError naming it, and a
    non-finite gradient reaches ``adamw_step``'s guard.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the guards raise instead
        if stack.step is None or stack.step.shape != batch.x.shape:
            stack.step = StepBuffers(stack, batch.x.shape)
        step, h = stack.step, batch.x
        for i, (w0, a, b, ah, z, low) in enumerate(step.forward):
            np.matmul(a, h, out=ah)
            np.matmul(w0, h, out=z)
            np.matmul(b, ah, out=low)
            low *= step.scale
            z += low
            _check_finite(z, f"layer {i}")
            h = np.tanh(z, out=z)
        out = np.matmul(stack.heads, h, out=step.out)
        if not all_finite(out):
            finite = np.isfinite(out).all(axis=(1, 2))
            raise NumericError("non-finite activations at head "
                               f"{batch.first + int(finite.argmin())}")
        g_out = step.g_out
        _output_gradient(out, batch.targets, g_out)
        np.matmul(g_out, step.features_t, out=step.head_grads)
        np.matmul(step.heads_t, g_out, out=step.forward[-1][5])
        for i in reversed(range(len(step.forward))):
            ah, dz, delta_h = step.forward[i][3:]
            w0_t, a_t, b_t, ah_t, h_in_t, grad_a, grad_b = step.backward[i]
            np.multiply(dz, dz, out=dz)
            np.subtract(1.0, dz, out=dz)
            dz *= delta_h
            np.matmul(dz, ah_t, out=grad_b)
            bt_dz = np.matmul(b_t, dz, out=ah)
            np.matmul(bt_dz, batch.x.swapaxes(1, 2) if h_in_t is None else h_in_t, out=grad_a)
            if i:
                below = np.matmul(w0_t, dz, out=step.forward[i - 1][5])
                below += step.scale * (a_t @ bt_dz)
        step.adapter_grads *= step.scale
    for model in stack.models:
        model.backward_passes += 1
    return step.grads


@dataclass(eq=False)
class EvalPool:
    """A model's held-out set, checked once, and the activation and output
    buffers that each ``eval_metric`` call on it reuses: one (d, n) z per
    layer and the (o, n) head output; batch holds every task's examples,
    kinds are the model's task kinds. A run builds one with ``of``, so the
    buffers live as long as the run."""

    batch: StepBatch
    kinds: list[str]
    z: list[Matrix] = field(repr=False)
    out: Matrix = field(repr=False)

    @classmethod
    def of(cls, batch: StepBatch, model: MultiTaskModel) -> EvalPool:
        """batch checked by ``check_batch`` for every task of model, with
        buffers for model's layer shapes."""
        check_batch(batch, model.kinds, model.out_dim)
        _check_input(model, batch.x.shape)
        n = batch.x.shape[-1]
        return cls(batch, model.kinds, [np.empty((len(layer.w0), n)) for layer in model.layers],
                   np.empty((model.out_dim, n)))


def _merged_weights(stack: ParamStack) -> list[np.ndarray]:
    """Each layer's (R, d, k) merged weights w0 + s*b@a, one per run of stack:
    one batched product per layer, then the scale and the add in place."""
    scale = stack.models[0].layers[0].adapter.scale
    weights = []
    for layer, (a, b) in zip(stack.models[0].layers, stack.adapters):
        w = np.matmul(b, a)
        w *= scale
        w += layer.w0
        weights.append(w)
    return weights


def eval_metric(stack: ParamStack, pool: EvalPool) -> list[float]:
    """Held-out metric of every task of pool: accuracy for classification,
    plain MSE for regression.

    Task t runs through run t // H of the stack and head t, so one call
    evaluates a mode. The runs have the layer shapes of the model the pool
    was built for, and its task kinds. Eval runs the adapters merged, as a
    deployed LoRA layer does: the call builds every run's merged weights
    once, and each task's (k, n) forward, the C-contiguous slab x[t] of the
    pool's inputs, is one product per layer, tanh((w0 + s*b@a) h), into the
    pool's buffers. Its bits are those of the merged product, not of the
    step's w0 h + s*b@(a h). The tasks run kind by kind. A non-finite layer
    or head output, or regression metric, raises NumericError naming it, with
    no numpy warning.
    """
    kinds = [kind for model in stack.models for kind in model.kinds]
    if kinds != pool.kinds:
        raise ParameterError(f"the stack's heads are not of the eval pool's kinds {pool.kinds}")
    per_run = len(kinds) // len(stack.models)
    metrics, out = [0.0] * len(kinds), pool.out
    with np.errstate(over="ignore", invalid="ignore"):  # the guards raise instead
        weights = _merged_weights(stack)
        for kind, pos, ys in pool.batch.targets:
            for t, y in zip(pos, ys):
                run, h = t // per_run, pool.batch.x[t]
                for i, (w, z) in enumerate(zip(weights, pool.z)):
                    np.matmul(w[run], h, out=z)
                    _check_finite(z, f"layer {i}")
                    h = np.tanh(z, out=z)
                np.matmul(stack.heads[t], h, out=out)
                _check_finite(out, f"head {t}")
                if kind == CLASSIFICATION:
                    metrics[t] = np.count_nonzero(out.argmax(axis=0) == y) / len(y)
                    continue
                np.subtract(out, y, out=out)
                metrics[t] = float(np.add.reduce(np.square(out, out=out), axis=None)) / out.size
                if not math.isfinite(metrics[t]):
                    raise NumericError(f"non-finite eval metric {metrics[t]} of task {t}")
    return metrics
