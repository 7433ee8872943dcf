"""Property test: report, surgery and merge on Gram matrices equal the vector form.

The reference below is the projection rule written out on explicit group
vectors: ``project_pair`` looped over every ordered task pair in the same
shuffled order, against the original or the already-projected gradients.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import grad_of, group_vector, stack_of

from ortho_lora import (
    FLAT,
    PER_MATRIX,
    PER_ROLE_CONCAT,
    NumericError,
    Rng,
    build_conflict_report,
    merge,
    project_pair,
    surgery,
)
from ortho_lora.surgery import group_grams
from ortho_lora.model import block_views
from ortho_lora.surgery import scope_groups

REL = 1e-12
MODES = ("original", "mutated")
SCOPES = (FLAT, PER_MATRIX, PER_ROLE_CONCAT)


def reference_surgery(grads, scope, seed, project_against):
    """Per task, {group label: projected vector}, computed on explicit vectors."""
    groups = scope_groups(grads[0], scope)
    originals = [{label: group_vector(g, bids) for label, bids in groups} for g in grads]
    working = [dict(o) for o in originals]
    order = Rng(seed).permutation(len(grads))
    for i in order:
        for j in order:
            if j == i:
                continue
            source = originals if project_against == "original" else working
            for label, _ in groups:
                working[i][label] = project_pair(working[i][label], source[j][label])
    return groups, originals, working


@st.composite
def task_gradients(draw):
    """1-8 tasks over 1-2 adapter layers, with zero blocks, duplicates and negations."""
    num_tasks = draw(st.integers(1, 8))
    layers = [(draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
              for _ in range(draw(st.integers(1, 2)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer_valued = draw(st.booleans())  # exact sums, so exact ties at dot == 0

    def block(shape):
        values = rng.standard_normal(shape) * 3.0
        return np.round(values) if integer_valued else values

    tasks = [([block((r, k)) for r, k, _ in layers], [block((d, r)) for r, _, d in layers])
             for _ in range(num_tasks)]
    if draw(st.booleans()):  # every A gradient is zero at step 0, where b = 0
        for a_blocks, _ in tasks:
            for a in a_blocks:
                a[...] = 0.0
    for t in range(1, num_tasks):
        src = draw(st.integers(0, t - 1))
        kind = draw(st.sampled_from(["own", "own", "duplicate", "negated"]))
        if kind != "own":
            sign = 1.0 if kind == "duplicate" else -1.0
            tasks[t] = tuple([sign * m for m in mats] for mats in tasks[src])
    return [grad_of(t, a, b, head=[[float(t)]]) for t, (a, b) in enumerate(tasks)]


def _rel_close(got, want, scale):
    return np.abs(got - want).max(initial=0.0) <= REL * scale


def check_report(grads, scope):
    """Report rows equal dots and cosines of the explicit group vectors."""
    groups = scope_groups(grads[0], scope)
    originals = [{label: group_vector(g, bids) for label, bids in groups} for g in grads]
    report = build_conflict_report(3, stack_of(grads), scope)
    labels = [label for label, _ in groups]
    expected = [(i, j, label) for i in range(len(grads)) for j in range(i + 1, len(grads))
                for label in labels]
    assert [(p.i, p.j, p.block) for p in report.pairs] == expected
    for p in report.pairs:
        vi, vj = originals[p.i][p.block], originals[p.j][p.block]
        ni, nj = np.linalg.norm(vi), np.linalg.norm(vj)
        dot = float(vi @ vj)
        assert abs(p.dot - dot) <= REL * ni * nj
        assert abs(p.cosine - (dot / (ni * nj) if ni and nj else 0.0)) <= REL
        if abs(dot) > REL * ni * nj:
            assert p.conflicted == (dot < 0.0)


@pytest.mark.parametrize("project_against", MODES)
@pytest.mark.parametrize("scope", SCOPES)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grads=task_gradients(), seed=st.integers(0, 2**16))
def test_gram_path_equals_vector_path(scope, project_against, grads, seed):
    check_report(grads, scope)
    try:
        groups, originals, want = reference_surgery(grads, scope, seed, project_against)
    except NumericError:  # a gradient cancelled to below DEGENERATE_NORM
        with pytest.raises(NumericError):
            surgery(stack_of(grads), scope, Rng(seed), project_against)
        return
    got = surgery(stack_of(grads), scope, Rng(seed), project_against)
    merged = block_views(merge(got), got.layout)
    for label, bids in groups:
        scale = max(np.linalg.norm(o[label]) for o in originals)
        for t, g in enumerate(got):
            assert _rel_close(group_vector(g, bids), want[t][label], scale), (label, t)
        summed = sum(w[label] for w in want)
        merged_vec = np.concatenate([merged[b].ravel() for b in bids])
        assert _rel_close(merged_vec, summed, len(grads) * scale), label
    for t, g in enumerate(grads):
        head = next(b for b in g.blocks if b.role == "HEAD")
        assert np.array_equal(got[t].blocks[head], g.blocks[head])
        assert np.array_equal(merged[head], g.blocks[head])


@pytest.mark.parametrize("project_against", MODES)
@pytest.mark.parametrize("scope", SCOPES)
def test_degenerate_conflict_raises_in_both_paths(scope, project_against):
    big = grad_of(0, [[[1.0, 2.0]]], [[[0.5], [-1.0]]], head=[[0.0]])
    tiny = grad_of(1, [[[-1e-31, -1e-31]]], [[[-1e-31], [1e-31]]], head=[[0.0]])
    # the big gradient must meet the tiny one before the tiny one is projected
    seed = next(s for s in range(100) if Rng(s).permutation(2) == [0, 1])
    with pytest.raises(NumericError):
        reference_surgery([big, tiny], scope, seed, project_against)
    with pytest.raises(NumericError):
        surgery(stack_of([big, tiny]), scope, Rng(seed), project_against)


@pytest.mark.parametrize("project_against", MODES)
@pytest.mark.parametrize("scope", SCOPES)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grads=task_gradients(), seed=st.integers(0, 2**16))
def test_shared_grams_change_no_bit(scope, project_against, grads, seed):
    # the trainer computes each group's Gram matrix once and hands it to both
    stack = stack_of(grads)
    grams = group_grams(stack, scope)
    groups = scope_groups(grads[0], scope)
    assert len(grams) == len(groups)
    for gram, (_, bids) in zip(grams, groups):
        v = np.stack([group_vector(g, bids) for g in grads])
        assert np.array_equal(gram, v @ v.T)
    assert (build_conflict_report(3, stack, scope, grams=grams)
            == build_conflict_report(3, stack, scope))
    try:
        want = surgery(stack, scope, Rng(seed), project_against)
    except NumericError:
        with pytest.raises(NumericError):
            surgery(stack, scope, Rng(seed), project_against, grams=grams)
        return
    got = surgery(stack, scope, Rng(seed), project_against, grams=grams)
    assert np.array_equal(got.rows, want.rows)
