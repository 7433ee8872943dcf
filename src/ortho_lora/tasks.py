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
rank-1 teacher (shared_scale=0) can only realize two distinct argmax
labels, so noiseless classification with shared_scale=0 needs out_dim=2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import Matrix, Rng
from .errors import ParameterError
from .model import CLASSIFICATION, REGRESSION, TaskBatch

MIN_CLASS_FRACTION = 0.10
MAX_LABEL_RETRIES = 100


@dataclass
class SyntheticTaskSet:
    kinds: list[str]
    teachers: list[Matrix]
    conflict_level: float
    noise_sigma: float
    train: list[TaskBatch]
    eval: list[TaskBatch]

    @property
    def num_tasks(self) -> int:
        return len(self.teachers)

    @property
    def in_dim(self) -> int:
        return self.teachers[0].shape[1]


def _check_common(in_dim: int, out_dim: int, num_tasks: int, conflict_level: float,
                  noise_sigma: float, n_train: int, n_eval: int) -> None:
    if in_dim < 1 or out_dim < 1:
        raise ParameterError(f"dims must be >= 1, got in_dim={in_dim}, out_dim={out_dim}")
    if num_tasks < 1:
        raise ParameterError(f"num_tasks must be >= 1, got {num_tasks}")
    if not 0.0 <= conflict_level <= 1.0:
        raise ParameterError(f"conflict_level must be in [0, 1], got {conflict_level}")
    if conflict_level > 0 and num_tasks < 2:
        raise ParameterError("conflict_level > 0 needs at least 2 tasks")
    if noise_sigma < 0:
        raise ParameterError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if n_train < 1 or n_eval < 1:
        raise ParameterError(f"pool sizes must be >= 1, got n_train={n_train}, n_eval={n_eval}")


def _teachers(in_dim: int, out_dim: int, num_tasks: int, conflict_level: float,
              shared_scale: float, rng: Rng) -> list[Matrix]:
    r = rng.child(0)
    shared = shared_scale * r.standard_normal((out_dim, in_dim))
    u = r.standard_normal((out_dim, 1))
    v = r.standard_normal((1, in_dim))
    bump = (u / np.linalg.norm(u)) @ (v / np.linalg.norm(v)) * np.sqrt(out_dim * in_dim)
    return [shared + (1.0 if t % 2 == 0 else -1.0) * conflict_level * bump
            for t in range(num_tasks)]


def _labels_balanced(logits_fn, n_train: int, n_eval: int, in_dim: int, classes: int,
                     stream: Rng) -> tuple[Matrix, np.ndarray]:
    """Draw inputs and argmax labels, retrying on a bumped substream when a
    class falls under MIN_CLASS_FRACTION of either pool."""
    n = n_train + n_eval
    for attempt in range(MAX_LABEL_RETRIES):
        r = stream.child(attempt)
        x = r.standard_normal((in_dim, n))
        labels = logits_fn(x, r).argmax(axis=0)
        train_counts = np.bincount(labels[:n_train], minlength=classes)
        eval_counts = np.bincount(labels[n_train:], minlength=classes)
        if (train_counts.min() >= MIN_CLASS_FRACTION * n_train
                and eval_counts.min() >= MIN_CLASS_FRACTION * n_eval):
            return x, labels.astype(np.int64)
    raise ParameterError(
        f"could not draw a label pool with every class >= {MIN_CLASS_FRACTION:.0%} "
        f"after {MAX_LABEL_RETRIES} attempts"
    )


def make_conflict_set(
    kinds: list[str],
    in_dim: int,
    out_dim: int,
    conflict_level: float,
    noise_sigma: float,
    n_train: int,
    n_eval: int,
    rng: Rng,
    shared_scale: float = 1.0,
) -> SyntheticTaskSet:
    """Build one task per entry of `kinds` over a shared conflict structure."""
    num_tasks = len(kinds)
    _check_common(in_dim, out_dim, num_tasks, conflict_level, noise_sigma, n_train, n_eval)
    for kind in kinds:
        if kind not in (REGRESSION, CLASSIFICATION):
            raise ParameterError(f"unknown task kind {kind!r}")
        if kind == CLASSIFICATION and out_dim < 2:
            raise ParameterError(f"classification needs >= 2 classes, got {out_dim}")

    teachers = _teachers(in_dim, out_dim, num_tasks, conflict_level, shared_scale, rng)
    train: list[TaskBatch] = []
    eval_: list[TaskBatch] = []
    for t, kind in enumerate(kinds):
        w_t = teachers[t]
        stream = rng.child(1).child(t)
        if kind == REGRESSION:
            r = stream.child(0)
            x = r.standard_normal((in_dim, n_train + n_eval))
            y = w_t @ x
            if noise_sigma > 0:
                y = y + noise_sigma * r.standard_normal(y.shape)
            train.append(TaskBatch(t, x[:, :n_train].copy(), y[:, :n_train].copy()))
            eval_.append(TaskBatch(t, x[:, n_train:].copy(), y[:, n_train:].copy()))
        else:
            def logits(x: Matrix, r: Rng) -> Matrix:
                z = w_t @ x
                if noise_sigma > 0:
                    z = z + noise_sigma * r.standard_normal(z.shape)
                return z

            x, labels = _labels_balanced(logits, n_train, n_eval, in_dim, out_dim, stream)
            train.append(TaskBatch(t, x[:, :n_train].copy(), labels[:n_train].copy()))
            eval_.append(TaskBatch(t, x[:, n_train:].copy(), labels[n_train:].copy()))
    return SyntheticTaskSet(
        kinds=list(kinds),
        teachers=teachers,
        conflict_level=conflict_level,
        noise_sigma=noise_sigma,
        train=train,
        eval=eval_,
    )


def subset_batch(batch: TaskBatch, cols: list[int] | np.ndarray) -> TaskBatch:
    """A batch restricted to the given example columns (row-major copies, not views)."""
    x = batch.x.take(cols, axis=1)
    y = batch.y.take(cols, axis=-1)
    return TaskBatch(batch.task_id, x, y)

