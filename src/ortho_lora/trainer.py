"""The training loop: per-task gradients, surgery, merge, AdamW update.

Four modes:

* SINGLE_TASK      - one independent model per task, each trained on its own
                     task only (the per-task upper bound; T times the params)
* JOINT            - one shared model updated with the sum of the task
                     gradients, i.e. the gradient of the summed loss
* ORTHO_FLAT       - conditional projection over each task's flattened
                     adapter gradient, then the sum
* ORTHO_STRUCTURED - same, but projecting each adapter matrix independently

Every mode shares one gradient path: the T tasks' equal-size batches run as
one (T, k, n) input through one forward and one backward pass, with the
heads they read as one (T, o, d) stack, and task t's gradient is row t of a
(T, A + o*d) matrix: the adapter columns, then task t's head. JOINT and both
ORTHO modes run one model (``joint_gradient``); the conflict report and the
projection read per-group Gram matrices of its rows (computed once per
step), merge sums them into the flat layout, and one AdamW step moves the
model's parameter vector. SINGLE_TASK's T one-task models (adapters and one
head each) are the rows of one (T, A + o*d) parameter stack
(``stacked_gradient``, each model on its own task's batch), and one AdamW
step moves the whole stack, each row by its own model's gradient. Head
gradients bypass projection in every mode. All modes draw identical batch
sequences for a given seed: data order, task generation, model init and the
surgery shuffle each consume their own named substream.

The data path keeps tasks as one array axis too. Each epoch draws its data
orders as one (T, N) block, and each step gathers every task's batch from
the stacked train pool with one ``subset_batch`` call (``epoch_batches``).
Each epoch ends with one ``eval_metric`` call over every task's held-out
pool. A one-task run keeps no conflict report, as it has no task pair.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from statistics import fmean

import numpy as np

from .config import (
    JOINT,
    ORTHO_FLAT,
    ORTHO_STRUCTURED,
    SINGLE_TASK,
    VALID_MODES,
    ExperimentConfig,
)
from .dense import Rng
from .errors import ParameterError
from .model import (
    FLAT,
    MultiTaskModel,
    TaskBatch,
    build_model,
    eval_metric,
    joint_gradient,
    stack_copies,
    stacked_gradient,
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


@dataclass
class StepRecord:
    step: int
    task: int
    loss: float
    lr: float


@dataclass
class EvalRecord:
    epoch: int
    mode: str
    task: str  # task index as a string, or "avg"
    metric: float


@dataclass
class MetricsLog:
    mode: str
    steps: list[StepRecord] = field(default_factory=list)
    conflicts: list[ConflictReport] = field(default_factory=list)
    evals: list[EvalRecord] = field(default_factory=list)

    def final_metrics(self) -> dict[str, float]:
        """Metric per task label from the last recorded epoch."""
        if not self.evals:
            raise ParameterError(f"log for mode {self.mode} has no eval records")
        last = max(r.epoch for r in self.evals)
        return {r.task: r.metric for r in self.evals if r.epoch == last}


def train_step(
    mode: str,
    models: list[MultiTaskModel],
    batches: list[TaskBatch],
    opt_states: list[AdamWState],
    step: int,
    lr: float,
    surgery_rng: Rng,
    scope: str,
    project_against: str = "original",
    record_conflicts: bool = True,
) -> tuple[list[StepRecord], ConflictReport | None]:
    """One optimization step; returns per-task loss records and the conflict
    report (ORTHO always, JOINT only when diagnostics are on; never for one
    task, which has no pair).

    SINGLE_TASK takes one model per task, made by ``stack_copies``; every
    mode takes one optimizer state.
    """
    num_tasks = len(models) if mode == SINGLE_TASK else models[0].num_tasks
    expected = num_tasks if mode == SINGLE_TASK else 1
    if len(models) != expected or len(opt_states) != 1:
        raise ParameterError(
            f"mode {mode} needs {expected} model(s) and 1 state, got {len(models)}/{len(opt_states)}"
        )

    report: ConflictReport | None = None
    if mode == SINGLE_TASK:
        grads, losses = stacked_gradient(models, batches)
        adamw_step(models[0].params.base, grads, opt_states[0], lr)  # the checked stack
    elif mode in (JOINT, ORTHO_FLAT, ORTHO_STRUCTURED):
        grads, losses = joint_gradient(models[0], batches)
        grams = None
        if mode != JOINT or record_conflicts:
            grams = group_grams(grads, scope)
            if num_tasks > 1:  # one task has no pair to report
                report = build_conflict_report(step, grads, scope, grams=grams)
        if mode != JOINT:
            grads = surgery(grads, scope, surgery_rng, project_against, grams=grams)
        adamw_step(models[0].params, merge(grads), opt_states[0], lr)
    else:
        raise ParameterError(f"unknown mode {mode!r}; expected one of {VALID_MODES}")

    # both gradient paths check for one batch per task and return losses in task order
    records = [StepRecord(step=step, task=t, loss=loss, lr=lr) for t, loss in enumerate(losses)]
    return records, report


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    task_set: SyntheticTaskSet
    logs: dict[str, MetricsLog]
    models: dict[str, list[MultiTaskModel]]

    def final_average(self, mode: str) -> float:
        return self.logs[mode].final_metrics()[AVG_TASK]


def build_task_set(config: ExperimentConfig) -> SyntheticTaskSet:
    t = config.tasks
    return make_conflict_set(
        kinds=t.kinds,
        in_dim=t.in_dim,
        out_dim=t.out_dim,
        conflict_level=t.conflict_level,
        noise_sigma=t.noise_sigma,
        n_train=t.n_train,
        n_eval=t.n_eval,
        rng=Rng(config.seed).child(STREAM_TASKS),
        shared_scale=t.shared_scale,
    )


def epoch_batches(pool: TaskPool, data_rng: Rng, batch_size: int,
                  steps: int) -> Iterator[list[TaskBatch]]:
    """One epoch's steps of batches, one per task.

    The epoch draws a (T, N) block of data orders, row t task t's
    permutation of its pool, drawn in task order; each step gathers the next
    batch_size columns of every row with one ``subset_batch`` call. When the
    columns run out, all tasks at once, the epoch draws a fresh block.
    """
    num_tasks, size = len(pool.x), pool.size

    def orders() -> np.ndarray:
        return np.array([data_rng.permutation(size) for _ in range(num_tasks)])

    block = orders()
    cursor = 0
    for _ in range(steps):
        if cursor + batch_size > size:
            block = orders()
            cursor = 0
        yield subset_batch(pool, block[:, cursor:cursor + batch_size])
        cursor += batch_size


def run_mode(config: ExperimentConfig, mode: str,
             task_set: SyntheticTaskSet | None = None) -> tuple[MetricsLog, list[MultiTaskModel]]:
    """Train one mode from config; deterministic in (config, mode)."""
    if mode not in VALID_MODES:
        raise ParameterError(f"unknown mode {mode!r}; expected one of {VALID_MODES}")
    master = Rng(config.seed)
    if task_set is None:
        task_set = build_task_set(config)
    num_tasks = task_set.num_tasks

    base = build_model(
        config.model.layer_dims,
        config.model.rank,
        config.model.alpha,
        config.model.sigma_init,
        task_set.kinds,
        config.tasks.out_dim,
        master.child(STREAM_INIT),
    )
    models = stack_copies(base) if mode == SINGLE_TASK else [base]
    opt_states = [AdamWState(hyper=config.optimizer)]
    data_rng = master.child(STREAM_DATA)
    surgery_rng = master.child(STREAM_SURGERY)
    # ORTHO_FLAT projects FLAT; the other modes report in the configured scope
    scope = FLAT if mode == ORTHO_FLAT else config.surgery.scope

    log = MetricsLog(mode=mode)

    def evaluate(epoch: int) -> None:
        metrics = eval_metric(models if mode == SINGLE_TASK else models * num_tasks, task_set.eval)
        log.evals += [EvalRecord(epoch=epoch, mode=mode, task=str(t), metric=metric)
                      for t, metric in enumerate(metrics)]
        log.evals.append(EvalRecord(epoch=epoch, mode=mode, task=AVG_TASK, metric=fmean(metrics)))

    evaluate(0)
    spe = config.steps_per_epoch()
    total_steps = config.total_steps()
    batch_size = config.schedule.batch_size
    step = 0
    for epoch in range(1, config.schedule.epochs + 1):
        for batches in epoch_batches(task_set.train_pool, data_rng, batch_size, spe):
            lr = linear_decay_lr(step, total_steps, config.optimizer.lr_base)
            records, report = train_step(
                mode, models, batches, opt_states, step, lr, surgery_rng, scope,
                project_against=config.surgery.project_against,
                record_conflicts=config.surgery.record_conflicts,
            )
            log.steps.extend(records)
            if report is not None:
                log.conflicts.append(report)
            step += 1
        evaluate(epoch)
    return log, models


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every configured mode on the same task set, model init and batches."""
    task_set = build_task_set(config)
    logs: dict[str, MetricsLog] = {}
    models: dict[str, list[MultiTaskModel]] = {}
    for mode in config.modes:
        log, mode_models = run_mode(config, mode, task_set=task_set)
        logs[mode] = log
        models[mode] = mode_models
    return ExperimentResult(config=config, task_set=task_set, logs=logs, models=models)
