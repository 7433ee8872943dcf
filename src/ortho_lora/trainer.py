"""The training loop: per-task gradients, surgery, merge, AdamW update.

Four modes:

* SINGLE_TASK      - one independent model per task, each trained on its own
                     task only (the per-task upper bound; T times the params)
* JOINT            - one shared model updated with the sum of the task
                     gradients, i.e. the gradient of the summed loss
* ORTHO_FLAT       - conditional projection of each task's flattened
                     adapter gradient against the other tasks' original
                     ones, then the sum
* ORTHO_STRUCTURED - same, but projecting each adapter matrix independently

Every mode trains one parameter stack (``stack_runs``) through one step:
one forward and one backward pass over the step's ``StepBatch``
(``joint_gradient``), and task t's gradient is row t of a (T, A + o*d)
matrix: the adapter columns of its run, then head t. JOINT and both ORTHO
modes are one run with T heads, SINGLE_TASK T runs of one head each
(``run_count``). The ORTHO projection reads per-group Gram matrices of the
rows (computed once per step), merge maps them to the stack's (R, P)
update, and one AdamW step moves the stack. A step computes only its
update: its losses, and JOINT's Gram matrices, which only the log reads,
are computed once per window of steps (``StepWindow``). Head gradients
bypass projection in every mode. All modes draw identical batch sequences
for a given seed: data order, task generation, model init and the surgery
shuffle each consume their own named substream.

A run draws its step schedule before its first step: the (S,) lr column, all
surgery orders in one draw, one (S, T) loss column and one (S, G, T, T)
Gram store, and its first step builds the ``StepBuffers`` that every step
writes; each window of steps fills its rows of the loss column (and, for
JOINT, of the Gram store), and after the last step one
``build_conflict_report`` call reads the store and the eval metrics become
one (E + 1, T) array: the log is columns, and builds its record objects
only on demand.

``build_task_set`` hands the config's checked ``tasks`` section and the
tasks substream to ``make_conflict_set``. A run checks its train pool once,
before its first step (``check_train``), and builds one ``EvalPool``
(its checked eval set and buffers). Each epoch draws its data orders as
(T, N) blocks, and one ``subset_batch`` call gathers every step a block
serves (``epoch_batches``). Each epoch ends with one ``eval_metric`` call.
``conflict_scope`` is the one rule for which modes report conflicts every
step, and in which scope: the trainer follows it, and the steps.csv reader
expects conflict rows by it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import repeat
from statistics import fmean

import numpy as np

from .config import (
    FLAT,
    JOINT,
    ORTHO_FLAT,
    SINGLE_TASK,
    VALID_MODES,
    ExperimentConfig,
)
from .dense import Rng, all_finite, same_bits
from .errors import NumericError, ParameterError
from .model import (
    EvalPool,
    MultiTaskModel,
    ParamStack,
    StepBatch,
    StepBuffers,
    build_model,
    eval_metric,
    joint_gradient,
    stack_runs,
    window_losses,
)
from .optim import AdamWState, adamw_step, linear_decay_lr
from .surgery import ConflictReport, build_conflict_report, group_grams, merge, surgery
from .tasks import SyntheticTaskSet, TaskPool, make_conflict_set, subset_batch

# Substream indices off the master seed; fixed so that consuming one stream
# (e.g. the surgery shuffle) can never perturb another (e.g. batch order).
STREAM_INIT = 0
STREAM_TASKS = 1
STREAM_DATA = 2
STREAM_SURGERY = 3

AVG_TASK = "avg"
# The most entries (64 KiB) of a StepWindow buffer, whatever a run's length:
# as tasks.GATHER_ENTRIES, under glibc's 128 KiB mmap threshold. A freed
# mapped block raises that threshold, and moves later arrays of every layer
# (eval's among them) from fresh maps to the heap.
WINDOW_ENTRIES = 8192


@dataclass(slots=True)
class StepRecord:
    step: int
    task: int
    loss: float
    lr: float


@dataclass(slots=True)
class EvalRecord:
    epoch: int
    mode: str
    task: str  # task index as a string, or "avg"
    metric: float


@dataclass(eq=False)
class MetricsLog:
    """losses[s, t] is task t's loss at step s and lrs[s] step s's lr;
    metrics[e, t] is task t's eval metric after epoch e, row 0 before training.
    Two logs are equal when every field, and every bit of each array, is."""

    mode: str
    losses: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))  # (steps, T)
    lrs: np.ndarray = field(default_factory=lambda: np.empty(0))  # (steps,)
    conflicts: list[ConflictReport] = field(default_factory=list)  # a run keeps at most one
    metrics: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))  # (epochs + 1, T)

    @property
    def steps(self) -> list[StepRecord]:
        """The loss rows as objects, step-major; built on each access."""
        return [StepRecord(step, task, loss, lr)
                for step, (losses, lr) in enumerate(zip(self.losses.tolist(), self.lrs.tolist()))
                for task, loss in enumerate(losses)]

    @property
    def evals(self) -> list[EvalRecord]:
        """The eval rows as objects, epoch-major, each epoch's tasks then its
        ``avg``; built on each access."""
        return [EvalRecord(epoch, self.mode, str(task), metric)
                for epoch, row in enumerate(self.metrics.tolist())
                for task, metric in [*enumerate(row), (AVG_TASK, fmean(row))]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsLog):
            return NotImplemented
        return ((self.mode, self.conflicts) == (other.mode, other.conflicts)
                and same_bits(self.losses, other.losses) and same_bits(self.lrs, other.lrs)
                and same_bits(self.metrics, other.metrics))

    def final_metrics(self) -> dict[str, float]:
        """Metric per task label, and their mean as ``avg``, after the last epoch."""
        if not len(self.metrics):
            raise ParameterError(f"log for mode {self.mode} has no eval metrics")
        row = self.metrics[-1].tolist()
        return {**{str(t): metric for t, metric in enumerate(row)}, AVG_TASK: fmean(row)}


def conflict_scope(config: ExperimentConfig, mode: str) -> str | None:
    """The scope in which mode reports conflicts every step of a run of config,
    or None when it reports none: SINGLE_TASK has no shared gradient,
    one task has no pair and JOINT reports only with ``record_conflicts``
    on. ORTHO_FLAT projects and reports FLAT, the other modes report (and
    ORTHO_STRUCTURED projects) in ``surgery.scope``."""
    if (mode == SINGLE_TASK or config.tasks.num_tasks < 2
            or (mode == JOINT and not config.surgery.record_conflicts)):
        return None
    return FLAT if mode == ORTHO_FLAT else config.surgery.scope


def run_count(config: ExperimentConfig, mode: str) -> int:
    """The runs of mode's parameter stack in a run of config: SINGLE_TASK trains
    one model per task, every other mode one model with every task's head."""
    return config.tasks.num_tasks if mode == SINGLE_TASK else 1


def train_step(mode: str, stack: ParamStack, batch: StepBatch, opt_state: AdamWState, lr: float,
               scope: str | None = None, grams: np.ndarray | None = None,
               order: list[int] | None = None) -> None:
    """One optimization step of every run of stack.

    In scope (a run's ``conflict_scope``) an ORTHO step writes its
    ``group_grams`` into the (G, T, T) grams and projects in order. JOINT's
    step computes no Gram matrix, which only its conflict report reads: its
    run's ``StepWindow`` computes them. With scope None the step projects
    nothing, as SINGLE_TASK's one-head runs must. The step computes no loss:
    stack.step.out keeps what the losses need (``joint_gradient``).
    """
    grads = joint_gradient(stack, batch)
    if scope is not None and mode != JOINT:
        grads = surgery(grads, scope, order, group_grams(grads, scope, grams), stack.step.projected)
    adamw_step(stack.matrix, merge(grads, stack.step.update), opt_state, lr)


class StepWindow:
    """The arithmetic that only a run's log reads, done once per window of
    steps, not inside each step: as many steps as fit WINDOW_ENTRIES, and at
    least one.

    After each step, ``keep`` copies what the step left for its losses (its
    (T, o, n) head output buffer: residuals or logits, see
    ``joint_gradient``) and, when grams is JOINT's (S, G, T, T) Gram store,
    its (T, A) adapter rows. After the window's last step, one
    ``window_losses`` call writes the window's rows of the (S, T) losses,
    and one batched V V^T per scope group its slice of grams, with the bits
    of each step's own ``group_grams``. A loss that is not finite raises a
    NumericError naming its step and task, one ``all_finite`` per window.
    ``flush`` ends a run's last window.
    """

    def __init__(self, stack: ParamStack, losses: np.ndarray, batch_size: int,
                 scope: str | None = None, grams: np.ndarray | None = None):
        tasks, outputs, layout = len(stack.heads), stack.heads.shape[1], stack.models[0].layout
        width = max(outputs * batch_size, layout.heads.start if grams is not None else 0)
        size = min(max(1, WINDOW_ENTRIES // (tasks * width)), len(losses))
        self.losses, self.grams, self.start, self.targets = losses, grams, 0, []
        self.saved = np.empty((size, tasks, outputs, batch_size))
        self.rows, self.views = None, []
        if grams is not None:
            self.rows = np.empty((size, tasks, layout.heads.start))
            self.views = [(v, v.swapaxes(1, 2)) for v in (self.rows[:, :, cols]
                                                          for _, cols in layout.groups(scope))]

    def keep(self, step: StepBuffers, batch: StepBatch) -> None:
        slot = len(self.targets)
        np.copyto(self.saved[slot], step.out)
        if self.rows is not None:
            np.copyto(self.rows[slot], step.adapter_grads)
        self.targets.append(batch.targets)
        if slot + 1 == len(self.saved):
            self.flush()

    def flush(self) -> None:
        count = len(self.targets)
        if not count:
            return
        stop = self.start + count
        self.losses[self.start:stop] = losses = window_losses(self.saved[:count], self.targets)
        if not all_finite(losses):  # what steps.csv would hold, and summarize refuse
            step, task = np.unravel_index(int(np.argmin(np.isfinite(losses))), losses.shape)
            raise NumericError(f"non-finite loss at step {self.start + step}, task {task}")
        for g, (v, v_t) in enumerate(self.views):
            np.matmul(v[:count], v_t[:count], out=self.grams[self.start:stop, g])
        self.start, self.targets = stop, []


@dataclass
class ExperimentResult:
    logs: dict[str, MetricsLog]
    models: dict[str, list[MultiTaskModel]]

    def final_average(self, mode: str) -> float:
        return self.logs[mode].final_metrics()[AVG_TASK]


def build_task_set(config: ExperimentConfig) -> SyntheticTaskSet:
    return make_conflict_set(config.tasks, Rng(config.seed).child(STREAM_TASKS))


def epoch_batches(pool: TaskPool, data_rng: Rng, batch_size: int,
                  steps: int) -> Iterator[StepBatch]:
    """One epoch's steps, each one StepBatch of a batch per task.

    The epoch draws a (T, N) block of data orders, row t task t's
    permutation of its pool, drawn in task order; its next batch_size
    columns of every row are the next step's batches. When the columns run
    out, all tasks at once, the epoch draws a fresh block. One
    ``subset_batch`` call gathers every step a block serves, at most N // batch_size.
    """
    num_tasks, size = pool.x.shape[:2]
    if not 1 <= batch_size <= size:
        raise ParameterError(f"batch_size must be in [1, {size}], got {batch_size}")
    while steps > 0:
        block = data_rng.permutations(num_tasks, size)
        count = min(steps, size // batch_size)
        yield from subset_batch(pool, block[:, :count * batch_size].reshape(num_tasks, count, -1))
        steps -= count


def run_mode(config: ExperimentConfig, mode: str,
             task_set: SyntheticTaskSet | None = None) -> tuple[MetricsLog, list[MultiTaskModel]]:
    """Train one mode from config; deterministic in (config, mode)."""
    if mode not in VALID_MODES:
        raise ParameterError(f"unknown mode {mode!r}; expected one of {VALID_MODES}")
    master = Rng(config.seed)
    if task_set is None:
        task_set = build_task_set(config)

    base = build_model(
        config.model.layer_dims,
        config.model.rank,
        config.model.alpha,
        config.model.sigma_init,
        task_set.kinds,
        config.tasks.out_dim,
        master.child(STREAM_INIT),
    )
    task_set.check_train(base.out_dim)
    eval_pool = EvalPool.of(task_set.eval, base)
    stack = stack_runs(base, run_count(config, mode))
    opt_state = AdamWState(hyper=config.optimizer)
    data_rng = master.child(STREAM_DATA)
    scope = conflict_scope(config, mode)
    total_steps, num_tasks = config.total_steps(), config.tasks.num_tasks

    lrs = linear_decay_lr(total_steps, config.optimizer.lr_base)
    losses = np.empty((total_steps, num_tasks))
    spe, batch_size = config.steps_per_epoch(), config.schedule.batch_size
    grams = None
    step_grams = orders = repeat(None)
    if scope is not None:
        grams = np.empty((total_steps, len(base.layout.groups(scope)), num_tasks, num_tasks))
        if mode != JOINT:
            step_grams = grams
            orders = master.child(STREAM_SURGERY).permutations(total_steps, num_tasks).tolist()
    window = StepWindow(stack, losses, batch_size, scope, grams if mode == JOINT else None)
    schedule = zip(lrs.tolist(), step_grams, orders)
    metrics = [eval_metric(stack, eval_pool)]
    for _ in range(config.schedule.epochs):
        # zip draws the batch first, so an epoch's end leaves the schedule unread
        for batch, (lr, gram, order) in zip(
                epoch_batches(task_set.train_pool, data_rng, batch_size, spe), schedule):
            train_step(mode, stack, batch, opt_state, lr, scope, gram, order)
            window.keep(stack.step, batch)
        metrics.append(eval_metric(stack, eval_pool))
    window.flush()
    log = MetricsLog(mode, losses, lrs, metrics=np.array(metrics))
    if scope is not None and total_steps:
        log.conflicts.append(build_conflict_report(base.layout, scope, grams))
    return log, stack.models


def run_experiment(config: ExperimentConfig,
                   task_set: SyntheticTaskSet | None = None) -> ExperimentResult:
    """Run every configured mode on the same task set (config's own unless
    given), model init and batches."""
    if task_set is None:
        task_set = build_task_set(config)
    logs: dict[str, MetricsLog] = {}
    models: dict[str, list[MultiTaskModel]] = {}
    for mode in config.modes:
        log, mode_models = run_mode(config, mode, task_set=task_set)
        logs[mode] = log
        models[mode] = mode_models
    return ExperimentResult(logs=logs, models=models)
