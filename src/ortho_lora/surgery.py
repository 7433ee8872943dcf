"""Conflict detection and orthogonal gradient projection over adapter blocks.

Two task gradients conflict when their inner product is negative. A
conflicting gradient is repaired by projecting it onto the normal plane of
the other task's gradient:

    gi <- gi - (gi . gj / ||gj||^2) gj      (applied only when gi . gj < 0)

``surgery`` runs the pairwise conditional projection over every task in a
freshly shuffled order each step, drawn before a run's first step. The scope
controls what "a gradient" means:

* FLAT            - all adapter blocks of a task concatenated into one vector
* PER_MATRIX      - each (layer, A|B) matrix projected independently
* PER_ROLE_CONCAT - all A blocks as one vector, all B blocks as another

Head gradients are never projected. Each task is projected against the
other tasks' ORIGINAL gradients, as in the paper and PCGrad (order-robust;
the randomized order still matters because projections compound on the
task being fixed).

The gradients arrive as a GradientStack: one row per task, the adapter
columns of the model's flat layout and then the task's own head. Its
``group_views(scope)`` gives every scope group as one contiguous column
view V (row t: task t's original gradient over the group) and V^T, built
once for a run's rows. Report and projection read the group's Gram matrix
G = V V^T, which ``group_grams`` computes once for both, into one (groups,
T, T) stack. Every working gradient is c^T V for a coefficient row c, so the
projected gradients are C V, and each inner product a pair test needs is
computed from G and the projections the row has fired so far, only when it
is tested. Merge maps the rows to the stack's update. Each of these
functions writes into the out it is given, and has no other path: a run
passes its Gram store's slice and its stack's step buffers.

The conflict report is columnar and covers a whole run, steps from 0 and
tasks in order: one (steps, pairs, groups) array of dots and one of cosines,
read off the run's (steps, groups, T, T) Gram store by one
``build_conflict_report`` call, with no object per row or per step.
``ConflictReport.pairs`` builds per-row objects on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dense import same_bits
from .errors import NumericError, ShapeError
from .model import GradientStack, Layout, TaskGradient

# ||gj|| below this with a negative dot means the conflict test itself sits
# inside rounding noise; refusing is safer than dividing by ~0.
DEGENERATE_NORM = 1e-30


@dataclass(frozen=True)
class ConflictPair:
    """One conflict row, as ``ConflictReport.pairs`` lists it."""

    step: int
    i: int
    j: int
    block: str
    dot: float
    cosine: float
    conflicted: bool


@dataclass(slots=True, eq=False)
class ConflictReport:
    """A run's conflict rows as columns.

    dot and cosine are (steps, pairs, groups) arrays: [s, p, g] is step s,
    the p-th unordered pair (i < j) of tasks 0..num_tasks-1, as ``pair_ids``
    lists them, and the scope group labels[g]. A row is conflicted when its
    dot is negative. Two reports are equal when every field, and every bit
    of both arrays, is. A run keeps one report, which shares its layout's
    labels list and owns its two arrays, so a run's log holds no per-step
    object and no larger buffer.
    """

    scope: str
    labels: list[str]
    num_tasks: int
    dot: np.ndarray
    cosine: np.ndarray

    def pair_ids(self) -> list[tuple[int, int]]:
        return list(combinations(range(self.num_tasks), 2))

    @property
    def pairs(self) -> list[ConflictPair]:
        """The rows as objects, step-major, then pair-major and group-minor;
        built on each access."""
        ids = self.pair_ids()
        return [ConflictPair(step, i, j, label, d, c, d < 0.0)
                for step, (step_dots, step_cosines) in enumerate(zip(self.dot.tolist(),
                                                                     self.cosine.tolist()))
                for (i, j), dots, cosines in zip(ids, step_dots, step_cosines)
                for label, d, c in zip(self.labels, dots, cosines)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConflictReport):
            return NotImplemented
        return ((self.scope, self.labels, self.num_tasks)
                == (other.scope, other.labels, other.num_tasks)
                and same_bits(self.dot, other.dot) and same_bits(self.cosine, other.cosine))


def scope_groups(grad: TaskGradient, scope: str) -> list[tuple[str, list[str]]]:
    """Each scope group's label and the names of the blocks inside its columns,
    in flat-layout order (A blocks, then B blocks)."""
    return [(label, [name for name, (sl, _) in grad.layout.blocks.items()
                     if cols.start <= sl.start < cols.stop])
            for label, cols in grad.layout.groups(scope)]


def group_grams(grads: GradientStack, scope: str, out: np.ndarray) -> np.ndarray:
    """The Gram matrix V V^T of every scope group's columns V (``group_views``),
    written into the (G, T, T) out in group order (a run passes its step's
    slice of its Gram store), which it returns."""
    for gram, (v, v_t) in zip(out, grads.group_views(scope)):
        np.matmul(v, v_t, out=gram)
    return out


def _coefficients(gram: np.ndarray, order: list[int]) -> np.ndarray | None:
    """C of the original rule for one scope group, or None when no pair conflicts.

    Row i keeps the projections it has fired, as (coef, G[k]) pairs in fire
    order, and each pair test computes its dot <w_i, g_j> on demand: G[i][j],
    then minus coef * G[k][j] for each fired pair. These are the operands,
    products and subtractions, in the same order, of updating the whole dot
    row after every fire, so the tested dots, C and the NumericError text are
    bit-identical to that form, while a fire costs one append.
    """
    originals = gram.tolist()
    size = len(originals)
    coeffs = [[0.0] * size for _ in originals]
    count = 0
    for i in order:
        row, own, fired = coeffs[i], originals[i], []
        row[i] = 1.0
        for j in order:
            if j == i:
                continue
            dot = own[j]
            for coef, gk in fired:
                dot -= coef * gk[j]
            if dot >= 0.0:
                continue
            if originals[j][j] < DEGENERATE_NORM * DEGENERATE_NORM:
                raise NumericError(f"surgery: conflicting dot {dot} against a gradient "
                                   f"of norm {np.sqrt(originals[j][j])} below {DEGENERATE_NORM}")
            coef = dot / originals[j][j]
            row[j] -= coef
            fired.append((coef, originals[j]))
        count += len(fired)
    return np.array(coeffs) if count else None


def surgery(grads: GradientStack, scope: str, order: list[int],
            grams: np.ndarray, out: GradientStack) -> GradientStack:
    """Pairwise conditional projection over all tasks, in order: a shuffle of
    the row indices, which a run draws for all its steps at once.

    The input is not mutated: each group is projected inside a copy of the
    rows in out, a stack of grads' shape, which it returns (a run passes its
    step buffers' stack). Heads pass through. grams is ``group_grams(grads,
    scope, ...)``.
    """
    np.copyto(out.rows, grads.rows)
    for gram, (v, _), (projected, _) in zip(grams, grads.group_views(scope), out.group_views(scope),
                                            strict=True):
        coeffs = _coefficients(gram, order)
        if coeffs is not None:
            np.matmul(coeffs, v, out=projected)
    return out


def merge(grads: GradientStack, out: np.ndarray | None) -> np.ndarray:
    """The (R, P) update of the parameter stack the rows came from: one-head
    runs' rows as they are, with no copy, where out is None, or the rows of
    one run's T tasks as one row, their adapter columns summed and row t's
    head in head t's, in the (1, P) out."""
    layout, rows = grads.layout, grads.rows
    if layout.num_tasks == 1:
        return rows
    if grads.task_ids != layout.task_ids:
        raise ShapeError(f"merge: rows of tasks {grads.task_ids}, not of every task in order")
    # + 0.0, as the sum with the other rows' zero heads was: -0.0 enters as 0.0
    heads = out[0, layout.heads].reshape(layout.num_tasks, -1)
    np.add(rows[:, layout.heads.start:], 0.0, out=heads)
    np.add.reduce(rows[:, :layout.heads.start], axis=0, out=out[0, :layout.heads.start])
    return out


def build_conflict_report(layout: Layout, scope: str, grams: np.ndarray) -> ConflictReport:
    """Dot/cosine rows for every unordered task pair in every scoped group of
    every step of a run, in one call.

    grams stacks each step's ``group_grams(grads, scope)`` as a (steps,
    groups, T, T) array of gradient rows in task order: the pre-surgery
    originals in the trainer, so the report does not depend on the shuffled
    projection order. The dots are the Gram entries above the diagonal, and
    each cosine divides its dot by the two norms from the diagonal, or is
    0.0 when a norm is: elementwise, so each step's entries have the bits
    of a report of that step alone.
    """
    count = layout.num_tasks
    picked = grams.reshape(*grams.shape[:2], count * count)[:, :, layout.pair_entries]
    picked = picked.swapaxes(1, 2)  # (steps, 3 * pairs, groups)
    pairs = picked.shape[1] // 3
    dot = picked[:, :pairs].copy()  # the log keeps dot, not the 3x larger picked
    norms = np.sqrt(picked[:, pairs:])
    denom = norms[:, :pairs] * norms[:, pairs:]
    cosine = np.divide(dot, denom, out=np.zeros(dot.shape), where=denom != 0.0)
    return ConflictReport(scope, layout.labels(scope), count, dot, cosine)
