import numpy as np
import pytest

from helpers import (
    blocks_equal,
    grad_of,
    group_vector,
    random_batch,
    random_model,
    stack_of,
    task_gradient,
)

from ortho_lora import (
    FLAT,
    PER_MATRIX,
    PER_ROLE_CONCAT,
    BlockId,
    NumericError,
    Rng,
    ShapeError,
    SurgeryStats,
    build_conflict_report,
    merge,
    project_pair,
    surgery,
)
from ortho_lora.model import block_views
from ortho_lora.surgery import scope_groups


def _two_grads(a1, a2, b1=None, b2=None):
    """Two single-layer task gradients with specified A (and optional B) blocks."""
    b1 = b1 if b1 is not None else [[0.1, 0.2], [0.3, 0.4]]
    b2 = b2 if b2 is not None else [[0.1, 0.2], [0.3, 0.4]]
    g1 = grad_of(0, [a1], [b1], head=[[1.0, 1.0]])
    g2 = grad_of(1, [a2], [b2], head=[[2.0, 2.0]])
    return g1, g2


def report_cosine(g1, g2, scope, block="flat"):
    """The conflict report's cosine column for the pair (g1, g2) in one group."""
    report = build_conflict_report(0, stack_of([g1, g2]), scope)
    (cosine,) = [p.cosine for p in report.pairs if p.block == block]
    return cosine


class TestPairwiseCosine:
    def test_self_similarity(self):
        g1, _ = _two_grads([[1.0, 2.0]], [[0.0, 0.0]])
        twin = grad_of(1, [g1.blocks[BlockId("A", 0)]], [g1.blocks[BlockId("B", 0)]], head=[[0.0]])
        assert report_cosine(g1, twin, FLAT) == pytest.approx(1.0, abs=1e-15)

    def test_antipodal(self):
        g1 = grad_of(0, [[[1.0, 2.0]]], [[[0.5], [0.5]]], head=[[0.0]])
        g2 = grad_of(1, [[[-1.0, -2.0]]], [[[-0.5], [-0.5]]], head=[[0.0]])
        assert report_cosine(g1, g2, FLAT) == pytest.approx(-1.0, abs=1e-15)

    def test_hand_value(self):
        # flattened gradients (1, 0) and (-1, 1): cosine -1/sqrt(2)
        g1 = grad_of(0, [[[1.0, 0.0]]], [np.zeros((1, 1))], head=[[0.0]])
        g2 = grad_of(1, [[[-1.0, 1.0]]], [np.zeros((1, 1))], head=[[0.0]])
        got = report_cosine(g1, g2, PER_MATRIX, block="L0.A")
        assert got == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-15)

    def test_zero_norm_returns_flagged_zero(self):
        g1 = grad_of(0, [np.zeros((1, 2))], [np.zeros((1, 1))], head=[[0.0]])
        g2 = grad_of(1, [np.zeros((1, 2))], [np.zeros((1, 1))], head=[[0.0]])
        got = report_cosine(g1, g2, FLAT)
        assert got == 0.0 and not np.isnan(got)

    def test_block_required_for_per_matrix(self):
        # per-matrix cosines come one per named matrix, never as one flat value
        g1, g2 = _two_grads([[1.0, 0.0]], [[0.0, 1.0]])
        report = build_conflict_report(0, stack_of([g1, g2]), PER_MATRIX)
        assert [p.block for p in report.pairs] == ["L0.A", "L0.B"]


class TestProjectPair:
    def test_hand_projection(self):
        gi = np.array([1.0, 0.0])
        gj = np.array([-1.0, 1.0])
        out = project_pair(gi, gj)
        assert np.allclose(out, [0.5, 0.5], rtol=0, atol=1e-15)
        assert abs(out @ gj) <= 1e-10 * np.linalg.norm(gi) * np.linalg.norm(gj)

    def test_antiparallel_cancels_completely(self):
        gi = np.array([0.3, -0.7, 2.0])
        out = project_pair(gi, -gi)
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_non_conflict_returned_unchanged(self):
        gi = np.array([1.0, 1.0])
        gj = np.array([0.3, 0.0])  # dot 0.3 > 0
        out = project_pair(gi, gj)
        assert out is gi

    def test_orthogonality_and_norm_shrink_on_random_conflicts(self):
        rng = Rng(0)
        for _ in range(200):
            gi = rng.standard_normal(6)
            gj = rng.standard_normal(6)
            if gi @ gj >= 0:
                gj = -gj  # force a conflict
            out = project_pair(gi, gj)
            assert abs(out @ gj) < 1e-10 * np.linalg.norm(gi) * np.linalg.norm(gj)
            assert np.linalg.norm(out) <= np.linalg.norm(gi) + 1e-12

    def test_degenerate_projector(self):
        gi = np.array([1.0, 0.0])
        gj = np.array([-1e-31, 0.0])  # dot < 0 but norm below the guard
        with pytest.raises(NumericError):
            project_pair(gi, gj)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            project_pair(np.zeros(3), np.zeros(4))


class TestSurgery:
    def test_single_task_unchanged(self):
        g = grad_of(0, [[[1.0, 2.0]]], [[[0.5], [0.5]]], head=[[1.0]])
        out = surgery(stack_of([g]), PER_MATRIX, Rng(0))
        assert blocks_equal(out[0], g)

    def test_no_conflict_identity_bit_exact(self):
        # all-positive entries make every scoped dot positive
        rng = Rng(1)
        g1 = grad_of(0, [np.abs(rng.standard_normal((2, 3)))],
                     [np.abs(rng.standard_normal((3, 2)))], head=rng.standard_normal((1, 3)))
        g2 = grad_of(1, [np.abs(rng.standard_normal((2, 3)))],
                     [np.abs(rng.standard_normal((3, 2)))], head=rng.standard_normal((1, 3)))
        for scope in (FLAT, PER_MATRIX, PER_ROLE_CONCAT):
            out = surgery(stack_of([g1, g2]), scope, Rng(2))
            assert blocks_equal(out[0], g1)
            assert blocks_equal(out[1], g2)

    def test_inputs_not_mutated(self):
        g1 = grad_of(0, [[[1.0, 0.0]]], [[[1.0], [0.0]]], head=[[1.0]])
        g2 = grad_of(1, [[[-1.0, 0.5]]], [[[-1.0], [0.5]]], head=[[2.0]])
        stack = stack_of([g1, g2])
        before = stack.rows.copy()
        out = surgery(stack, FLAT, Rng(0))
        assert np.array_equal(stack.rows, before)
        assert not np.array_equal(out.rows, before)

    def test_scoped_divergence_construction(self):
        # A blocks conflict, B blocks agree; overall flat dot is negative.
        g1, g2 = _two_grads(
            a1=[[1.0, 0.0]], a2=[[-1.0, 0.1]],
            b1=[[0.1], [0.1]], b2=[[0.1], [0.1]],
        )
        per_matrix = surgery(stack_of([g1, g2]), PER_MATRIX, Rng(3))
        flat = surgery(stack_of([g1, g2]), FLAT, Rng(3))

        a_id, b_id = BlockId("A", 0), BlockId("B", 0)
        # PER_MATRIX: only A blocks move
        assert not np.array_equal(per_matrix[0].blocks[a_id], g1.blocks[a_id])
        assert np.array_equal(per_matrix[0].blocks[b_id], g1.blocks[b_id])
        assert np.array_equal(per_matrix[1].blocks[b_id], g2.blocks[b_id])
        # FLAT: the projection moves B entries as well
        assert not np.array_equal(flat[0].blocks[b_id], g1.blocks[b_id])
        # and the two scopes disagree
        assert not np.array_equal(per_matrix[0].blocks[a_id], flat[0].blocks[a_id])

    def test_heads_pass_through_untouched(self):
        g1 = grad_of(0, [[[1.0, 0.0]]], [[[1.0], [1.0]]], head=[[3.0, 4.0]])
        g2 = grad_of(1, [[[-1.0, 0.0]]], [[[-1.0], [-1.0]]], head=[[5.0, 6.0]])
        out = surgery(stack_of([g1, g2]), FLAT, Rng(4))
        assert np.array_equal(out[0].blocks[BlockId("HEAD", 0)], g1.blocks[BlockId("HEAD", 0)])
        assert np.array_equal(out[1].blocks[BlockId("HEAD", 1)], g2.blocks[BlockId("HEAD", 1)])

    def test_two_task_orthogonality_postcondition(self):
        rng = Rng(5)
        for scope in (FLAT, PER_MATRIX, PER_ROLE_CONCAT):
            g1 = grad_of(0, [rng.standard_normal((2, 3))], [rng.standard_normal((3, 2))],
                         head=rng.standard_normal((2, 3)))
            g2 = grad_of(1, [-g1.blocks[BlockId("A", 0)] + 0.1 * rng.standard_normal((2, 3))],
                         [-g1.blocks[BlockId("B", 0)] + 0.1 * rng.standard_normal((3, 2))],
                         head=rng.standard_normal((2, 3)))
            out = surgery(stack_of([g1, g2]), scope, Rng(6))
            for label, bids in scope_groups(g1, scope):
                for gi_new, gj_orig in ((out[0], g2), (out[1], g1)):
                    vi = group_vector(gi_new, bids)
                    vj = group_vector(gj_orig, bids)
                    orig_i = g1 if gi_new.task_id == 0 else g2
                    dot_before = group_vector(orig_i, bids) @ vj
                    if dot_before < 0:
                        tol = 1e-10 * np.linalg.norm(group_vector(orig_i, bids)) * np.linalg.norm(vj)
                        assert abs(vi @ vj) <= tol, f"{scope}/{label}"

    def test_three_task_last_projection_orthogonality(self):
        # replicate the shuffle to find, per task, the last conflicting j; the
        # final gradient must be orthogonal to that j's original gradient
        rng = Rng(7)
        grads = [
            grad_of(t, [rng.standard_normal((2, 3))], [rng.standard_normal((3, 2))],
                    head=rng.standard_normal((1, 3)))
            for t in range(3)
        ]
        seed = 11
        out = surgery(stack_of(grads), FLAT, Rng(seed))
        order = Rng(seed).permutation(3)
        (label, bids), = scope_groups(grads[0], FLAT)
        originals = [group_vector(g, bids) for g in grads]
        for i in order:
            # replay the cumulative projection to find the last fired j
            work = originals[i].copy()
            last_fired = None
            for j in order:
                if j == i:
                    continue
                if work @ originals[j] < 0:
                    work = work - (work @ originals[j]) / (originals[j] @ originals[j]) * originals[j]
                    last_fired = j
            if last_fired is not None:
                vi = group_vector(out[i], bids)
                vj = originals[last_fired]
                assert abs(vi @ vj) <= 1e-10 * np.linalg.norm(originals[i]) * np.linalg.norm(vj)

    def test_seeded_determinism(self):
        rng = Rng(8)
        grads = [
            grad_of(t, [rng.standard_normal((2, 3))], [rng.standard_normal((3, 2))],
                    head=rng.standard_normal((1, 3)))
            for t in range(3)
        ]
        out1 = surgery(stack_of(grads), PER_MATRIX, Rng(9))
        out2 = surgery(stack_of(grads), PER_MATRIX, Rng(9))
        assert all(blocks_equal(a, b) for a, b in zip(out1, out2))

    def test_project_against_mutated_differs(self):
        rng = Rng(10)
        grads = [
            grad_of(t, [rng.standard_normal((2, 3))], [rng.standard_normal((3, 2))],
                    head=rng.standard_normal((1, 3)))
            for t in range(3)
        ]
        orig = surgery(stack_of(grads), FLAT, Rng(11), project_against="original")
        mut = surgery(stack_of(grads), FLAT, Rng(11), project_against="mutated")
        assert not all(blocks_equal(a, b) for a, b in zip(orig, mut))

    def test_stats_count_adapter_floats(self):
        model = random_model(12, layer_dims=(6, 5, 4), rank=2, randomize_b=True)
        grads = [task_gradient(model, random_batch(model, t, 4, seed=t)) for t in range(2)]
        stats = SurgeryStats()
        surgery(stack_of(grads), PER_MATRIX, Rng(13), stats=stats)
        assert stats.floats_touched == 2 * model.adapter_param_count()


class TestMerge:
    def test_single_identity(self):
        g = grad_of(0, [[[1.0, 2.0]]], [[[0.5], [0.25]]], head=[[1.0, 2.0]])
        stack = stack_of([g])
        merged = block_views(merge(stack), stack.layout)
        assert all(np.array_equal(merged[b], g.blocks[b]) for b in g.blocks)

    def test_opposites_cancel(self):
        g1 = grad_of(0, [[[1.0, 2.0]]], [[[0.5], [0.25]]], head=[[1.0]])
        g2 = grad_of(1, [[[-1.0, -2.0]]], [[[-0.5], [-0.25]]], head=[[9.0]])
        stack = stack_of([g1, g2])
        merged = block_views(merge(stack), stack.layout)
        assert np.array_equal(merged[BlockId("A", 0)], np.zeros((1, 2)))
        assert np.array_equal(merged[BlockId("B", 0)], np.zeros((2, 1)))

    def test_random_sum_oracle(self):
        rng = Rng(14)
        grads = [
            grad_of(t, [rng.standard_normal((2, 3)), rng.standard_normal((3, 4))],
                    [rng.standard_normal((3, 2)), rng.standard_normal((4, 3))],
                    head=rng.standard_normal((2, 3)))
            for t in range(3)
        ]
        stack = stack_of(grads)
        merged = block_views(merge(stack), stack.layout)
        for i in range(2):
            for role in ("A", "B"):
                bid = BlockId(role, i)
                want = grads[0].blocks[bid] + grads[1].blocks[bid] + grads[2].blocks[bid]
                assert np.array_equal(merged[bid], want)

    def test_heads_from_own_tasks_only(self):
        g1 = grad_of(0, [[[1.0]]], [[[1.0]]], head=[[7.0]])
        g2 = grad_of(1, [[[2.0]]], [[[2.0]]], head=[[8.0]])
        stack = stack_of([g1, g2])
        merged = block_views(merge(stack), stack.layout)
        assert np.array_equal(merged[BlockId("HEAD", 0)], [[7.0]])
        assert np.array_equal(merged[BlockId("HEAD", 1)], [[8.0]])


class TestConflictReport:
    def test_rows_cover_all_pairs_and_blocks(self):
        rng = Rng(15)
        grads = [
            grad_of(t, [rng.standard_normal((2, 3))], [rng.standard_normal((3, 2))],
                    head=rng.standard_normal((1, 3)))
            for t in range(3)
        ]
        report = build_conflict_report(4, stack_of(grads), PER_MATRIX)
        assert report.step == 4
        assert report.scope == PER_MATRIX
        assert len(report.pairs) == 3 * 2  # 3 unordered pairs x 2 blocks
        for p in report.pairs:
            assert p.conflicted == (p.dot < 0)
            assert -1.0 - 1e-12 <= p.cosine <= 1.0 + 1e-12

    def test_single_task_empty(self):
        g = grad_of(0, [[[1.0]]], [[[1.0]]], head=[[1.0]])
        assert build_conflict_report(0, stack_of([g]), FLAT).pairs == []
