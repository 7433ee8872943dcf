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

Report, projection and merge run on each scope group's Gram matrix G = V V^T
(row t of V: task t's original gradient over the group). Under the original
rule every working gradient is c^T V for a coefficient row c, so each inner
product it needs is an entry of C G and the projected gradients are C V.
``project_pair`` is the same rule on explicit vectors; the mutated rule uses it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .dense import Matrix, Rng
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


def adapter_block_order(grad: TaskGradient) -> list[BlockId]:
    bids = [b for b in grad.blocks if b.role in ("A", "B")]
    return sorted(bids, key=lambda b: (b.index, b.role))


def scope_groups(grad: TaskGradient, scope: str) -> list[tuple[str, list[BlockId]]]:
    """Named groups of adapter blocks that each get projected as one vector."""
    bids = adapter_block_order(grad)
    if scope == FLAT:
        return [("flat", bids)]
    if scope == PER_MATRIX:
        return [(str(b), [b]) for b in bids]
    if scope == PER_ROLE_CONCAT:
        return [
            ("A", [b for b in bids if b.role == "A"]),
            ("B", [b for b in bids if b.role == "B"]),
        ]
    raise ParameterError(f"unknown projection scope {scope!r}; expected one of {SCOPES}")


def _group_vector(grad: TaskGradient, bids: list[BlockId]) -> np.ndarray:
    return np.concatenate([grad.blocks[b].ravel() for b in bids])


def stack_gradients(grads: Sequence[TaskGradient]) -> GradientStack:
    """The gradients as one GradientStack, checked once; a stack passes through."""
    if isinstance(grads, GradientStack):
        return grads
    if not grads:
        raise ParameterError("surgery/merge needs at least one task gradient")
    shapes = [{b: g.blocks[b].shape for b in adapter_block_order(g)} for g in grads]
    for g, got in zip(grads, shapes):
        if got != shapes[0]:
            raise ShapeError(f"task {g.task_id} adapter blocks {got} differ from {shapes[0]}")
    heads = [g.blocks.get(BlockId("HEAD", g.task_id)) for g in grads]
    if any(h is None for h in heads):
        raise ShapeError("every task gradient needs its own head block")
    adapters = {b: np.stack([g.blocks[b] for g in grads]) for b in shapes[0]}
    return GradientStack([g.task_id for g in grads], adapters, heads)


def _gram(stack: GradientStack, bids: list[BlockId]) -> np.ndarray:
    """G = V V^T over one scope group, summed blockwise without concatenation."""
    vs = [stack.adapters[b].reshape(len(stack), -1) for b in bids]
    gram = vs[0] @ vs[0].T
    for v in vs[1:]:
        gram += v @ v.T
    return gram


def pairwise_cosine(
    gi: TaskGradient, gj: TaskGradient, scope: str, block: str | None = None
) -> float:
    """Cosine of the two gradients over the scoped entries; 0.0 when a norm is zero.

    For FLAT, block may be None; for the per-block scopes it names the group.
    """
    groups = dict(scope_groups(gi, scope))
    label = "flat" if scope == FLAT and block is None else block
    if label not in groups:
        raise ParameterError(f"scope {scope} has no block {block!r}; expected one of {sorted(groups)}")
    gram = _gram(stack_gradients([gi, gj]), groups[label]).tolist()
    return _cosine(gram[0][1], math.sqrt(gram[0][0]), math.sqrt(gram[1][1]))


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


def _project_mutated(stack: GradientStack, bids: list[BlockId],
                     order: list[int]) -> dict[BlockId, np.ndarray]:
    """The mutated rule on the group's explicit rows.

    Its dots involve gradients that were projected already; read from G they
    lose all precision once such a gradient cancels to rounding noise.
    """
    rows = np.concatenate([stack.adapters[b].reshape(len(stack), -1) for b in bids], axis=1)
    for i in order:
        for j in order:
            if j != i:
                rows[i] = project_pair(rows[i], rows[j])
    edges = np.cumsum([stack.adapters[b][0].size for b in bids])[:-1]
    return {b: part.reshape(stack.adapters[b].shape)
            for b, part in zip(bids, np.split(rows, edges, axis=1))}


def surgery(
    grads: Sequence[TaskGradient],
    scope: str,
    rng: Rng,
    project_against: str = PROJECT_AGAINST_ORIGINAL,
    stats: SurgeryStats | None = None,
) -> GradientStack:
    """Pairwise conditional projection over all tasks, in one shuffled order.

    Inputs are not mutated. A group without conflicts keeps its input
    arrays; a projected group gets fresh arrays. Heads pass through.
    """
    if project_against not in (PROJECT_AGAINST_ORIGINAL, PROJECT_AGAINST_MUTATED):
        raise ParameterError(f"project_against must be 'original' or 'mutated', got {project_against!r}")
    stack = stack_gradients(grads)
    groups = scope_groups(stack[0], scope)
    if stats is not None:
        stats.floats_touched += sum(arr.size for arr in stack.adapters.values())

    order = rng.permutation(len(stack))
    adapters = dict(stack.adapters)
    for _, bids in groups:
        if project_against == PROJECT_AGAINST_MUTATED:
            adapters.update(_project_mutated(stack, bids, order))
            continue
        coeffs = _coefficients(_gram(stack, bids), order)
        if coeffs is None:
            continue
        for b in bids:
            arr = stack.adapters[b]
            adapters[b] = (coeffs @ arr.reshape(len(stack), -1)).reshape(arr.shape)
    return GradientStack(stack.task_ids, adapters, stack.heads)


def merge(grads: Sequence[TaskGradient]) -> dict[BlockId, Matrix]:
    """Blockwise sum; each task's head enters only from its own gradient."""
    stack = stack_gradients(grads)
    merged = {b: arr.sum(axis=0) for b, arr in stack.adapters.items()}
    for t, head in zip(stack.task_ids, stack.heads):
        bid = BlockId("HEAD", t)
        merged[bid] = merged[bid] + head if bid in merged else head
    return merged


def build_conflict_report(step: int, grads: Sequence[TaskGradient], scope: str) -> ConflictReport:
    """Dot/cosine rows for every unordered task pair in every scoped block.

    Read from the Gram matrices of the gradients as given (pre-surgery
    originals in the trainer), so the report does not depend on the shuffled
    projection order.
    """
    stack = stack_gradients(grads)
    report = ConflictReport(step=step, scope=scope)
    if len(stack) < 2:
        return report
    grams = [(label, _gram(stack, bids).tolist()) for label, bids in scope_groups(stack[0], scope)]
    norms = [[math.sqrt(row[k]) for k, row in enumerate(gram)] for _, gram in grams]
    ids = stack.task_ids
    order = sorted(range(len(ids)), key=ids.__getitem__)
    for x, p in enumerate(order):
        for q in order[x + 1:]:
            for (label, gram), norm in zip(grams, norms):
                dot = gram[p][q]
                report.pairs.append(ConflictPair(ids[p], ids[q], label, dot,
                                                 _cosine(dot, norm[p], norm[q]), dot < 0.0))
    return report
