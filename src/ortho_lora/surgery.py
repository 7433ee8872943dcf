"""Conflict detection and orthogonal gradient projection over adapter blocks.

Two task gradients conflict when their inner product is negative. A
conflicting gradient is repaired by projecting it onto the normal plane of
the other task's gradient:

    gi <- gi - (gi . gj / ||gj||^2) gj      (applied only when gi . gj < 0)

``surgery`` runs the pairwise conditional projection over every task in a
freshly shuffled order each step. The scope controls what "a gradient" means:

* FLAT            - all adapter blocks of a task concatenated into one vector
* PER_MATRIX      - each (layer, A|B) matrix projected independently
* PER_ROLE_CONCAT - all A blocks as one vector, all B blocks as another

Head gradients are never projected. By default each task is projected
against the other tasks' ORIGINAL gradients (order-robust; the randomized
order still matters because projections compound on the task being fixed).
``project_against="mutated"`` switches to projecting against whatever the
other task's gradient currently is, for comparison.

The gradients arrive as a GradientStack: one row per task, the adapter
columns of the model's flat layout and then the task's own head. Its
layout's ``groups(scope)`` gives every scope group as one contiguous column
slice V (row t: task t's original gradient over the
group). Report and projection read the group's Gram matrix G = V V^T,
which ``group_grams`` computes once for both, as one (groups, T, T) stack.
Under the original rule every working gradient is c^T V for a coefficient
row c, so each inner product it needs is an entry of C G and the projected
gradients are C V. ``project_pair`` is the same rule on explicit vectors;
the mutated rule uses it. Merge sums the rows into the flat layout.

The conflict report is columnar: one (pairs, groups) array of dots and one
of cosines per step, read off the Gram stack above its diagonal, with no
object per row. ``ConflictReport.pairs`` builds per-row objects on demand
for callers that want them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dense import Rng
from .errors import NumericError, ParameterError, ShapeError
from .model import GradientStack, TaskGradient

PROJECT_AGAINST_ORIGINAL = "original"
PROJECT_AGAINST_MUTATED = "mutated"

# ||gj|| below this with a negative dot means the conflict test itself sits
# inside rounding noise; refusing is safer than dividing by ~0.
DEGENERATE_NORM = 1e-30


@dataclass(frozen=True)
class ConflictPair:
    """One conflict row, as ``ConflictReport.pairs`` lists it."""

    i: int
    j: int
    block: str
    dot: float
    cosine: float
    conflicted: bool


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass(eq=False)
class ConflictReport:
    """One step's conflict rows as columns.

    dot and cosine are (pairs, groups) arrays: row p is the p-th unordered
    task pair (i < j) in task-id order, as ``pair_ids`` lists them, and
    column g the scope group labels[g]. A row is conflicted when its dot is
    negative. Two reports are equal when every field, and every bit of both
    arrays, is.
    """

    step: int
    scope: str
    labels: list[str]
    task_ids: list[int]
    dot: np.ndarray
    cosine: np.ndarray

    @property
    def conflicted(self) -> np.ndarray:
        return self.dot < 0.0

    def pair_ids(self) -> list[tuple[int, int]]:
        return list(combinations(sorted(self.task_ids), 2))

    @property
    def pairs(self) -> list[ConflictPair]:
        """The rows as objects, pair-major and group-minor; built on each access."""
        return [ConflictPair(i, j, label, d, c, d < 0.0)
                for (i, j), dots, cosines in zip(self.pair_ids(), self.dot.tolist(),
                                                 self.cosine.tolist())
                for label, d, c in zip(self.labels, dots, cosines)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConflictReport):
            return NotImplemented
        return ((self.step, self.scope, self.labels, self.task_ids)
                == (other.step, other.scope, other.labels, other.task_ids)
                and _same_bits(self.dot, other.dot) and _same_bits(self.cosine, other.cosine))


def scope_groups(grad: TaskGradient, scope: str) -> list[tuple[str, list[str]]]:
    """Each scope group's label and the names of the blocks inside its columns,
    in flat-layout order (A blocks, then B blocks)."""
    return [(label, [name for name, (sl, _) in grad.layout.blocks.items()
                     if cols.start <= sl.start < cols.stop])
            for label, cols in grad.layout.groups(scope)]


def group_grams(grads: GradientStack, scope: str) -> np.ndarray:
    """The Gram matrix V V^T of every scope group's columns V: a (G, T, T) stack
    in group order."""
    groups = grads.layout.groups(scope)
    grams = np.empty((len(groups), len(grads.task_ids), len(grads.task_ids)))
    for gram, (_, cols) in zip(grams, groups):
        v = grads.rows[:, cols]
        np.matmul(v, v.T, out=gram)
    return grams


def project_pair(gi_vec: np.ndarray, gj_vec: np.ndarray) -> np.ndarray:
    """Conditional projection of gi onto the normal plane of gj.

    Returns gi unchanged when the dot is non-negative; otherwise removes the
    component along gj, which zeroes the mutual inner product and can only
    shrink the norm.
    """
    if gi_vec.shape != gj_vec.shape:
        raise ShapeError(f"project_pair: lengths {gi_vec.shape} and {gj_vec.shape} differ")
    dot = float(gi_vec @ gj_vec)
    if dot >= 0.0:
        return gi_vec
    nj_sq = float(gj_vec @ gj_vec)
    if nj_sq < DEGENERATE_NORM * DEGENERATE_NORM:
        raise NumericError(
            f"project_pair: conflicting dot {dot} against a vector of norm "
            f"{np.sqrt(nj_sq)} below {DEGENERATE_NORM}"
        )
    return gi_vec - (dot / nj_sq) * gj_vec


def _coefficients(gram: np.ndarray, order: list[int]) -> np.ndarray | None:
    """C of the original rule for one scope group, or None when no pair conflicts.

    Row i of dots = C G holds <w_i, g_k> for every k, so each pair test is a
    lookup and only a conflict costs an O(T) row update.
    """
    originals = gram.tolist()
    coeffs = np.eye(len(gram)).tolist()
    dots = [row[:] for row in originals]
    fired = False
    for i in order:
        for j in order:
            if j == i or dots[i][j] >= 0.0:
                continue
            if originals[j][j] < DEGENERATE_NORM * DEGENERATE_NORM:
                raise NumericError(f"surgery: conflicting dot {dots[i][j]} against a gradient "
                                   f"of norm {np.sqrt(originals[j][j])} below {DEGENERATE_NORM}")
            coef = dots[i][j] / originals[j][j]
            coeffs[i][j] -= coef
            dots[i] = [a - coef * b for a, b in zip(dots[i], originals[j])]
            fired = True
    return np.array(coeffs) if fired else None


def surgery(
    grads: GradientStack,
    scope: str,
    rng: Rng,
    project_against: str = PROJECT_AGAINST_ORIGINAL,
    grams: np.ndarray | None = None,
) -> GradientStack:
    """Pairwise conditional projection over all tasks, in one shuffled order.

    The input is not mutated: each group is projected inside a copy of the
    rows. Heads pass through. grams, when given, is ``group_grams(grads,
    scope)``.
    """
    if project_against not in (PROJECT_AGAINST_ORIGINAL, PROJECT_AGAINST_MUTATED):
        raise ParameterError(f"project_against must be 'original' or 'mutated', got {project_against!r}")
    groups = grads.layout.groups(scope)
    order = rng.permutation(len(grads.task_ids)).tolist()
    rows = grads.rows.copy()
    if grams is None and project_against == PROJECT_AGAINST_ORIGINAL:
        grams = group_grams(grads, scope)
    for g, (_, cols) in enumerate(groups):
        v = rows[:, cols]
        if project_against == PROJECT_AGAINST_MUTATED:
            # explicit rows: dots of already-projected gradients read from G
            # lose all precision once such a gradient cancels to rounding noise
            for i in order:
                for j in order:
                    if j != i:
                        v[i] = project_pair(v[i], v[j])
            continue
        coeffs = _coefficients(grams[g], order)
        if coeffs is not None:
            rows[:, cols] = coeffs @ v
    return GradientStack(grads.task_ids, rows, grads.layout)


def merge(grads: GradientStack) -> np.ndarray:
    """The update in the flat layout: the rows' adapter columns summed, and each
    row's head in its task's head columns (zero for a task with no row)."""
    layout, rows = grads.layout, grads.rows
    update = np.zeros(layout.size)
    rows[:, :layout.heads.start].sum(axis=0, out=update[:layout.heads.start])
    # + 0.0, as the sum with the other rows' zero heads was: -0.0 enters as 0.0
    update[layout.heads].reshape(layout.num_tasks, -1)[grads.task_ids] = rows[:, layout.heads.start:] + 0.0
    return update


def build_conflict_report(step: int, grads: GradientStack, scope: str,
                          grams: np.ndarray | None = None) -> ConflictReport:
    """Dot/cosine rows for every unordered task pair in every scoped group.

    Read from the Gram matrices of the gradients as given (pre-surgery
    originals in the trainer), so the report does not depend on the shuffled
    projection order: the dots are the Gram entries above the diagonal, and
    each cosine divides its dot by the two norms from the diagonal, or is
    0.0 when a norm is. grams, when given, is ``group_grams(grads, scope)``.
    """
    layout = grads.layout
    ids = grads.task_ids
    if len(ids) != layout.num_tasks:
        raise ShapeError(f"conflict report: {len(ids)} gradient rows for a layout of "
                         f"{layout.num_tasks} tasks")
    if grams is None:
        grams = group_grams(grads, scope)
    entries, count = layout.pair_entries, len(ids)
    if ids != sorted(ids):  # rows not in task-id order
        order = np.argsort(ids)
        entries = order[entries // count] * count + order[entries % count]
    picked = grams.reshape(len(grams), -1).T[entries]  # (3 * pairs, groups)
    pairs = len(picked) // 3
    dot = picked[:pairs]
    norms = np.sqrt(picked[pairs:])
    denom = norms[:pairs] * norms[pairs:]
    cosine = np.divide(dot, denom, out=np.zeros(dot.shape), where=denom != 0.0)
    return ConflictReport(step, scope, [label for label, _ in layout.groups(scope)], list(ids),
                          dot, cosine)
