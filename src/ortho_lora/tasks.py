"""Synthetic task families with a tunable degree of gradient conflict.

Every task's teacher is a linear map built from one shared component plus a
signed rank-1 disturbance:

    W_t = shared_scale * W_shared + s_t * conflict_level * U

with s_t alternating +1/-1 over tasks. U is a uniformly random rank-1
direction (outer product of unit vectors) scaled to the Frobenius mass a
standard-normal matrix of the same shape would carry, so the conflict term's
strength relative to the shared component is conflict_level / shared_scale
for every seed rather than a draw-dependent lottery. conflict_level in
[0, 1] then interpolates from identical teachers to a family whose members
actively disagree along one direction that fits inside a rank-1 update.
shared_scale=0 with conflict_level=1 yields exactly antipodal teachers.

Regression tasks emit y = W_t x + noise; classification tasks emit
argmax(W_t x + noise) labels. Degenerate label draws (any class under 10%
of a pool) are retried on an incremented substream; the bump count is part
of no other stream, so unaffected tasks keep their data. Note that a pure
rank-1 teacher (shared_scale=0) realizes at most two argmax labels (one
at conflict_level=0): ``config_from_dict`` rejects more classes without
noise, and a pool too small for out_dim classes of MIN_CLASS_FRACTION. A
pool that some draw could fill but none of MAX_LABEL_RETRIES does raises a
ConfigError naming the task and the pool that fell short, so the CLI
builds the task set before it writes anything.

``make_conflict_set`` reads the config's ``tasks`` section as
``config_from_dict`` checked it, and checks none of its values again.

The training examples live in one stacked ``TaskPool``, checked once per run
(``SyntheticTaskSet.check_train``). ``subset_batch`` gathers many steps'
``StepBatch`` objects at once, straight into the stacked arrays the gradient
code reads. The held-out examples are one ``StepBatch``: a C-contiguous
(T, k, n_eval) input, whose slabs eval multiplies, and each kind's targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import CLASSIFICATION, MIN_CLASS_FRACTION, REGRESSION, TasksConfig
from .dense import Matrix, Rng
from .errors import ConfigError, ParameterError
from .model import StepBatch, check_batch

MAX_LABEL_RETRIES = 100
# The most input entries (64 KiB) subset_batch gathers into one array: glibc
# reuses heap blocks under its 128 KiB mmap threshold, but maps larger ones
# afresh, and each gather would fault their pages in again.
GATHER_ENTRIES = 8192


@dataclass
class TaskPool:
    """Every task's N examples in stacked arrays, one row per example.

    x is (T, N, k): x[t, j] is task t's input j. targets holds, for each
    task kind present, (kind, the kind's task ids in order, their targets
    stacked): (R, N, o) regression values or (C, N) class labels. A step's
    gather then copies whole rows, a few cache lines per example, where
    columns of a (k, N) input would touch a line per entry.
    """

    x: np.ndarray
    targets: list[tuple[str, list[int], np.ndarray]]


@dataclass
class SyntheticTaskSet:
    """The tasks' kinds and teachers, their training examples (train_pool) and
    their held-out examples (eval, a StepBatch of every task)."""

    kinds: list[str]
    teachers: list[Matrix]
    train_pool: TaskPool
    eval: StepBatch

    def check_train(self, out_dim: int) -> None:
        """Check every train example once, for out_dim outputs, by ``check_batch``
        on (T, k, N) and (R, o, N) views of the pool, which copy nothing. A
        step's gathered ``StepBatch`` then needs no check."""
        pool = self.train_pool
        check_batch(StepBatch(pool.x.swapaxes(1, 2), [(kind, ids, np.moveaxis(y, 1, -1))
                                                      for kind, ids, y in pool.targets]),
                    self.kinds, out_dim)


def _teachers(tasks: TasksConfig, rng: Rng) -> list[Matrix]:
    r = rng.child(0)
    out_dim, in_dim = tasks.out_dim, tasks.in_dim
    shared = tasks.shared_scale * r.standard_normal((out_dim, in_dim))
    u = r.standard_normal((out_dim, 1))
    v = r.standard_normal((1, in_dim))
    bump = (u / np.linalg.norm(u)) @ (v / np.linalg.norm(v)) * np.sqrt(out_dim * in_dim)
    return [shared + (1.0 if t % 2 == 0 else -1.0) * tasks.conflict_level * bump
            for t in range(tasks.num_tasks)]


def _draw(teacher: Matrix, noise_sigma: float, n: int, r: Rng) -> tuple[Matrix, Matrix]:
    """n inputs drawn from r, as columns, and the teacher's outputs on them
    plus N(0, noise_sigma^2) noise drawn next."""
    x = r.standard_normal((teacher.shape[1], n))
    y = teacher @ x
    if noise_sigma > 0:
        y = y + noise_sigma * r.standard_normal(y.shape)
    return x, y


def _labels_balanced(draw, n_train: int, n_eval: int, classes: int,
                     stream: Rng, task: int) -> tuple[Matrix, np.ndarray]:
    """Inputs and the argmax labels of their drawn logits, retrying on a bumped
    substream when a class falls under MIN_CLASS_FRACTION of either pool.
    When no attempt fills both, a ConfigError names the task and each pool
    that fell short."""
    short_train = short_eval = 0  # the attempts in which each pool fell short
    for attempt in range(MAX_LABEL_RETRIES):
        x, logits = draw(stream.child(attempt))
        labels = logits.argmax(axis=0)
        train_ok = np.bincount(labels[:n_train], minlength=classes).min() >= MIN_CLASS_FRACTION * n_train
        eval_ok = np.bincount(labels[n_train:], minlength=classes).min() >= MIN_CLASS_FRACTION * n_eval
        if train_ok and eval_ok:
            return x, labels.astype(np.int64)
        short_train += not train_ok
        short_eval += not eval_ok
    pools = ", ".join(f"tasks.{name} ({size} examples) {count} times" for name, size, count
                      in (("n_train", n_train, short_train), ("n_eval", n_eval, short_eval)) if count)
    raise ConfigError(
        f"config.tasks: could not draw task {task}'s labels with each of {classes} classes "
        f">= {MIN_CLASS_FRACTION:.0%} of its pool in {MAX_LABEL_RETRIES} attempts; short: {pools}"
    )


def make_conflict_set(tasks: TasksConfig, rng: Rng) -> SyntheticTaskSet:
    """Build one task per entry of the checked tasks.kinds over a shared conflict structure."""
    kinds, in_dim, out_dim = tasks.kinds, tasks.in_dim, tasks.out_dim
    n_train, n_eval, noise_sigma = tasks.n_train, tasks.n_eval, tasks.noise_sigma
    teachers = _teachers(tasks, rng)
    x_train, x_eval = np.empty((len(kinds), n_train, in_dim)), np.empty((len(kinds), in_dim, n_eval))
    train, held_out = [], []
    # kind by kind: each task draws from its own substream, so the order moves no bit
    for kind, shape, dtype in ((REGRESSION, (out_dim,), np.float64), (CLASSIFICATION, (), np.int64)):
        ids = [t for t, k in enumerate(kinds) if k == kind]
        y_train = np.empty((len(ids), n_train, *shape), dtype)
        y_eval = np.empty((len(ids), *shape, n_eval), dtype)
        for i, t in enumerate(ids):
            # a regression task's examples are a classification task's first attempt
            draw, stream = partial(_draw, teachers[t], noise_sigma, n_train + n_eval), rng.child(1).child(t)
            x, y = (draw(stream.child(0)) if kind == REGRESSION
                    else _labels_balanced(draw, n_train, n_eval, out_dim, stream, t))
            x_train[t], y_train[i] = x[:, :n_train].T, y[..., :n_train].T
            x_eval[t], y_eval[i] = x[:, n_train:], y[..., n_train:]
        if ids:
            train.append((kind, ids, y_train))
            held_out.append((kind, ids, y_eval))
    return SyntheticTaskSet(list(kinds), teachers, TaskPool(x_train, train), StepBatch(x_eval, held_out))


def _rows(idx: np.ndarray, size: int) -> np.ndarray:
    """The row of example idx[t, s, j] of slab t in a (T * size, ...) view, at
    [s, t, j] of an (S, T, n) array."""
    return (idx + np.arange(0, len(idx) * size, size)[:, None, None]).swapaxes(0, 1)


def _gather(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The examples at the (S, T, n) rows (see ``_rows``) of a (T, N, ...) stack,
    as one take, with the examples moved last: (S, T, ..., n), C-contiguous."""
    picked = stack.reshape(len(stack) * stack.shape[1], -1).take(rows, axis=0)
    return np.ascontiguousarray(picked.swapaxes(2, 3)).reshape(*rows.shape[:2], *stack.shape[2:], -1)


def subset_batch(pool: TaskPool, idx: list | np.ndarray) -> list[StepBatch]:
    """The StepBatch of every step s of a (T, S, n) index block: step s holds
    the pool examples idx[t, s] of every task t.

    Each run of steps with at most GATHER_ENTRIES input entries takes one
    gather into a new (S', T, k, n) array and one per task kind for the
    targets; its steps hold C-contiguous views of them. Only the index block
    is checked: the pool is checked once per run (``check_train``).
    """
    idx = np.asarray(idx, dtype=np.int64)
    count, size = pool.x.shape[:2]
    if idx.ndim != 3 or len(idx) != count or not idx.shape[2]:
        raise ParameterError(f"need a ({count}, S, n >= 1) index block, got shape {idx.shape}")
    # as unsigned, a negative index is huge: one max bounds both ends
    if idx.size and idx.view(np.uint64).max() >= size:
        raise ParameterError(f"example indices must be in [0, {size})")
    per_run = max(1, GATHER_ENTRIES // (pool.x[:, 0].size * idx.shape[2]))
    steps = []
    for run in (idx[:, s:s + per_run] for s in range(0, idx.shape[1], per_run)):
        rows = _rows(run, size)
        targets = [(kind, ids, _gather(y, rows if len(ids) == count else _rows(run[ids], size)))
                   for kind, ids, y in pool.targets]
        steps += [StepBatch(x, [(kind, ids, y[s]) for kind, ids, y in targets])
                  for s, x in enumerate(_gather(pool.x, rows))]
    return steps
