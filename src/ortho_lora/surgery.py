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

The gradients arrive as a GradientStack: one row per task in the model's
flat parameter layout, where every scope group is one contiguous column
slice V (row t: task t's original gradient over the group). Report and
projection read the group's Gram matrix G = V V^T, which ``group_grams``
computes once for both. Under the original rule every working gradient is
c^T V for a coefficient row c, so each inner product it needs is an entry
of C G and the projected gradients are C V. ``project_pair`` is the same
rule on explicit vectors; the mutated rule uses it. Merge sums the rows.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .dense import Rng
from .errors import NumericError, ParameterError, ShapeError
from .model import BlockId, GradientStack, TaskGradient

FLAT = "FLAT"
PER_MATRIX = "PER_MATRIX"
PER_ROLE_CONCAT = "PER_ROLE_CONCAT"
SCOPES = (FLAT, PER_MATRIX, PER_ROLE_CONCAT)

PROJECT_AGAINST_ORIGINAL = "original"
PROJECT_AGAINST_MUTATED = "mutated"

# ||gj|| below this with a negative dot means the conflict test itself sits
# inside rounding noise; refusing is safer than dividing by ~0.
DEGENERATE_NORM = 1e-30


@dataclass
class ConflictPair:
    i: int
    j: int
    block: str
    dot: float
    cosine: float
    conflicted: bool


@dataclass
class ConflictReport:
    step: int
    scope: str = PER_MATRIX
    pairs: list[ConflictPair] = field(default_factory=list)

    def conflict_count(self) -> int:
        return sum(p.conflicted for p in self.pairs)


@dataclass
class SurgeryStats:
    """Instrumentation: how many gradient floats the projection pass handled."""

    floats_touched: int = 0


def scope_groups(grad: TaskGradient, scope: str) -> list[tuple[str, list[BlockId]]]:
    """Named groups of adapter blocks that each get projected as one vector; a
    group lists its blocks in flat-layout order (A blocks, then B blocks)."""
    return _groups(grad.blocks, scope)


def _groups(bids: Iterable[BlockId], scope: str) -> list[tuple[str, list[BlockId]]]:
    adapters = sorted((b for b in bids if b.role in ("A", "B")), key=lambda b: (b.role, b.index))
    if scope == FLAT:
        return [("flat", adapters)]
    if scope == PER_MATRIX:
        return [(str(b), [b]) for b in sorted(adapters, key=lambda b: (b.index, b.role))]
    if scope == PER_ROLE_CONCAT:
        return [(role, [b for b in adapters if b.role == role]) for role in ("A", "B")]
    raise ParameterError(f"unknown projection scope {scope!r}; expected one of {SCOPES}")


def _group_columns(stack: GradientStack, scope: str) -> list[tuple[str, slice]]:
    """Each scope group as the contiguous column slice of the stack rows it covers."""
    return [(label, slice(stack.layout[bids[0]][0].start, stack.layout[bids[-1]][0].stop))
            for label, bids in _groups(stack.layout, scope)]


def group_grams(grads: GradientStack, scope: str) -> list[np.ndarray]:
    """The Gram matrix V V^T of every scope group's columns V, in group order."""
    grams = []
    for _, cols in _group_columns(grads, scope):
        v = grads.rows[:, cols]
        grams.append(v @ v.T)
    return grams


def _cosine(dot: float, ni: float, nj: float) -> float:
    if ni == 0.0 or nj == 0.0:
        return 0.0
    return dot / (ni * nj)


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
    stats: SurgeryStats | None = None,
    grams: list[np.ndarray] | None = None,
) -> GradientStack:
    """Pairwise conditional projection over all tasks, in one shuffled order.

    The input is not mutated: each group is projected inside a copy of the
    rows. Heads pass through. grams, when given, is ``group_grams(grads,
    scope)``.
    """
    if project_against not in (PROJECT_AGAINST_ORIGINAL, PROJECT_AGAINST_MUTATED):
        raise ParameterError(f"project_against must be 'original' or 'mutated', got {project_against!r}")
    groups = _group_columns(grads, scope)
    if stats is not None:
        stats.floats_touched += len(grads) * sum(cols.stop - cols.start for _, cols in groups)

    order = rng.permutation(len(grads))
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
    """The update in the flat layout: the sum of the rows, so each head enters
    only from its own task's row."""
    return grads.rows.sum(axis=0)


def build_conflict_report(step: int, grads: GradientStack, scope: str,
                          grams: list[np.ndarray] | None = None) -> ConflictReport:
    """Dot/cosine rows for every unordered task pair in every scoped block.

    Read from the Gram matrices of the gradients as given (pre-surgery
    originals in the trainer), so the report does not depend on the shuffled
    projection order. grams, when given, is ``group_grams(grads, scope)``.
    """
    report = ConflictReport(step=step, scope=scope)
    if len(grads) < 2:
        return report
    labels = [label for label, _ in _group_columns(grads, scope)]
    dots = [gram.tolist() for gram in (grams or group_grams(grads, scope))]
    norms = [[math.sqrt(row[k]) for k, row in enumerate(gram)] for gram in dots]
    ids = grads.task_ids
    order = sorted(range(len(ids)), key=ids.__getitem__)
    for x, p in enumerate(order):
        for q in order[x + 1:]:
            for label, gram, norm in zip(labels, dots, norms):
                dot = gram[p][q]
                report.pairs.append(ConflictPair(ids[p], ids[q], label, dot,
                                                 _cosine(dot, norm[p], norm[q]), dot < 0.0))
    return report
