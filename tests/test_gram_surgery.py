"""Property test: report, surgery and merge on Gram matrices equal the vector form.

The reference below is the projection rule written out on explicit group
vectors: ``project_pair`` looped over every ordered task pair in the same
shuffled order, against the original gradients. Test ids name that rule.
The pair loop's on-demand dots are also checked bit for bit against the
eager dot-row update they replaced (``helpers.eager_coefficients``).
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    eager_coefficients,
    grad_of,
    group_vector,
    project,
    project_pair,
    reference_conflict_rows,
    shuffle,
    stack_of,
    step_outs,
    step_report,
)

from ortho_lora import surgery as surgery_module
from ortho_lora.config import ORTHO_FLAT, ORTHO_STRUCTURED, config_from_dict
from ortho_lora.errors import NumericError
from ortho_lora.model import FLAT, PER_MATRIX, PER_ROLE_CONCAT, GradientStack, Layout
from ortho_lora.surgery import (
    _coefficients,
    build_conflict_report,
    group_grams,
    merge,
    scope_groups,
    surgery,
)
from ortho_lora.trainer import run_mode

REL = 1e-12
SCOPES = (FLAT, PER_MATRIX, PER_ROLE_CONCAT)
RULE_IDS = [f"{scope}-original" for scope in SCOPES]


def reference_surgery(grads, scope, seed):
    """Per task, {group label: projected vector}, computed on explicit vectors."""
    groups = scope_groups(stack_of(grads)[0], scope)
    originals = [{label: group_vector(g, bids) for label, bids in groups} for g in grads]
    working = [dict(o) for o in originals]
    order = shuffle(seed, len(grads))
    for i in order:
        for j in order:
            if j == i:
                continue
            for label, _ in groups:
                working[i][label] = project_pair(working[i][label], originals[j][label])
    return groups, originals, working


@st.composite
def task_gradients(draw, max_tasks=8, tiny=False):
    """1-max_tasks tasks over 1-2 adapter layers, with zero blocks, duplicates
    and negations; with tiny, also tasks scaled far below DEGENERATE_NORM."""
    num_tasks = draw(st.integers(1, max_tasks))
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
        kind = draw(st.sampled_from(["own", "own", "duplicate", "negated"]
                                    + ["tiny"] * tiny))
        if kind != "own":
            scale = {"duplicate": 1.0, "negated": -1.0, "tiny": 1e-31}[kind]
            tasks[t] = tuple([scale * m for m in mats] for mats in tasks[src])
    return [grad_of(t, a, b, head=[[float(t)]]) for t, (a, b) in enumerate(tasks)]


def _rel_close(got, want, scale):
    return np.abs(got - want).max(initial=0.0) <= REL * scale


def check_report(grads, scope):
    """Report rows equal dots and cosines of the explicit group vectors."""
    groups = scope_groups(stack_of(grads)[0], scope)
    originals = [{label: group_vector(g, bids) for label, bids in groups} for g in grads]
    stack = stack_of(grads)
    report = step_report(stack, scope)
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


@pytest.mark.parametrize("scope", SCOPES, ids=RULE_IDS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grads=task_gradients(), seed=st.integers(0, 2**16))
def test_gram_path_equals_vector_path(scope, grads, seed):
    check_report(grads, scope)
    stack = stack_of(grads)
    try:
        groups, originals, want = reference_surgery(grads, scope, seed)
    except NumericError:  # a gradient cancelled to below DEGENERATE_NORM
        with pytest.raises(NumericError):
            project(stack, scope, shuffle(seed, len(grads)))
        return
    got = project(stack, scope, shuffle(seed, len(grads)))
    (merged,) = merge(got, step_outs(got).update)
    for label, bids in groups:
        scale = max(np.linalg.norm(o[label]) for o in originals)
        for t, g in enumerate(got):
            assert _rel_close(group_vector(g, bids), want[t][label], scale), (label, t)
        summed = sum(w[label] for w in want)
        merged_vec = np.concatenate([merged[got.layout.blocks[b][0]] for b in bids])
        assert _rel_close(merged_vec, summed, len(grads) * scale), label
    for t, g in enumerate(grads):
        head = f"HEAD{t}"
        assert np.array_equal(got[t].blocks[head], g.blocks[head])
        assert np.array_equal(merged[got.layout.blocks[head][0]], g.blocks[head].ravel())


@pytest.mark.parametrize("scope", SCOPES, ids=RULE_IDS)
def test_degenerate_conflict_raises_in_both_paths(scope):
    big = grad_of(0, [[[1.0, 2.0]]], [[[0.5], [-1.0]]], head=[[0.0]])
    tiny = grad_of(1, [[[-1e-31, -1e-31]]], [[[-1e-31], [1e-31]]], head=[[0.0]])
    # the big gradient must meet the tiny one before the tiny one is projected
    seed = next(s for s in range(100) if shuffle(s, 2) == [0, 1])
    with pytest.raises(NumericError):
        reference_surgery([big, tiny], scope, seed)
    stack = stack_of([big, tiny])
    with pytest.raises(NumericError, match=r"^surgery: conflicting dot -\S+ against a gradient "
                                           r"of norm \S+ below 1e-30$"):
        project(stack, scope, shuffle(seed, 2))


@st.composite
def gram_orders(draw):
    """One scope group's Gram matrix of 1-16 task gradients drawn as
    task_gradients draws them, some far below DEGENERATE_NORM, and a
    random order of the tasks."""
    grads = draw(task_gradients(max_tasks=16, tiny=True))
    stack, scope = stack_of(grads), draw(st.sampled_from(SCOPES))
    grams = group_grams(stack, scope, step_outs(stack, scope).grams)
    return grams[draw(st.integers(0, len(grams) - 1))], draw(st.permutations(range(len(grads))))


def same_coefficients(got, want) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=gram_orders())
def test_on_demand_dots_equal_the_eager_row_update_bit_for_bit(case):
    gram, order = case
    try:
        want = eager_coefficients(gram, order)
    except NumericError as exc:
        with pytest.raises(NumericError) as info:
            _coefficients(gram, order)
        assert str(info.value) == str(exc)
        return
    assert same_coefficients(_coefficients(gram, order), want)


@pytest.mark.parametrize("mode", [ORTHO_FLAT, ORTHO_STRUCTURED])
def test_on_demand_dots_equal_the_eager_row_update_over_a_many_task_run(mode, monkeypatch):
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs" / "default.json")
                     .read_text(encoding="utf-8"))
    raw["tasks"]["num_tasks"], raw["schedule"]["epochs"], raw["modes"] = 16, 2, [mode]
    calls, fired, mismatches = 0, 0, 0
    on_demand = surgery_module._coefficients

    def compare(gram, order):
        nonlocal calls, fired, mismatches
        got, want = on_demand(gram, order), eager_coefficients(gram, order)
        calls, fired = calls + 1, fired + (want is not None)
        mismatches += not same_coefficients(got, want)
        return got

    monkeypatch.setattr(surgery_module, "_coefficients", compare)
    run_mode(config_from_dict(raw), mode)
    assert mismatches == 0
    assert calls == 60 * (1 if mode == ORTHO_FLAT else 2) and fired > 0


@pytest.mark.parametrize("scope", SCOPES, ids=RULE_IDS)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grads=task_gradients(), seed=st.integers(0, 2**16))
def test_shared_grams_change_no_bit(scope, grads, seed):
    # the trainer computes each group's Gram matrix once and hands it to both
    # the report and then the projection: neither may write to it
    stack = stack_of(grads)
    grams = group_grams(stack, scope, step_outs(stack, scope).grams)
    groups = scope_groups(stack[0], scope)
    assert len(grams) == len(groups)
    for gram, (_, bids) in zip(grams, groups):
        v = np.stack([group_vector(g, bids) for g in grads])
        assert np.array_equal(gram, v @ v.T)
    # a run's Gram store slice, written in place with the same bits
    store = np.full((2, *grams.shape), np.nan)
    written = group_grams(stack, scope, out=store[1])
    assert np.shares_memory(written, store[1]) and store[1].tobytes() == grams.tobytes()
    assert np.isnan(store[0]).all()
    before = grams.copy()
    report = step_report(stack, scope, grams)
    assert np.array_equal(grams, before)
    try:
        surgery(stack, scope, shuffle(seed, len(grads)), grams, step_outs(stack, scope).projected)
    except NumericError:
        pass
    assert np.array_equal(grams, before)
    assert step_report(stack, scope, grams) == report


@st.composite
def gradient_stacks(draw):
    """2-16 task rows over 1-3 adapter layers, with all-zero, duplicated and
    negated rows."""
    num_tasks = draw(st.integers(2, 16))
    dims = [draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 3)) + 1)]
    rank = draw(st.integers(1, min(dims)))
    layout = Layout([(rank, k) for k in dims[:-1]], [(d, rank) for d in dims[1:]],
                    (1, dims[-1]), num_tasks)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((num_tasks, layout.size)) * 3.0
    if draw(st.booleans()):  # exact sums, so exact ties at dot == 0
        rows = np.round(rows)
    for t in range(num_tasks):
        kind = draw(st.sampled_from(["own", "own", "zero", "duplicate", "negated"]))
        src = draw(st.integers(0, num_tasks - 1))
        if kind == "zero":
            rows[t] = 0.0
        elif kind != "own":
            rows[t] = rows[src] if kind == "duplicate" else -rows[src]
    return GradientStack(layout.task_ids, rows, layout)


@pytest.mark.parametrize("scope", SCOPES)
@settings(max_examples=60, deadline=None)
@given(stack=gradient_stacks())
def test_report_columns_equal_per_pair_loop_bit_for_bit(scope, stack):
    report = step_report(stack, scope)
    want = reference_conflict_rows(stack, scope)
    assert [(i, j, label) for i, j in report.pair_ids()
            for label in report.labels] == [row[:3] for row in want]
    assert report.dot.shape == report.cosine.shape == (1, len(want) // len(report.labels),
                                                       len(report.labels))
    assert [x.hex() for x in report.dot.ravel().tolist()] == [row[3].hex() for row in want]
    assert [x.hex() for x in report.cosine.ravel().tolist()] == [row[4].hex() for row in want]


@st.composite
def gram_runs(draw):
    """A run's Gram stacks: 1-8 steps of 1-6 task rows over a 1- or 2-layer
    layout in one scope (1, 2 or 4 groups), some groups of some rows all
    zero."""
    num_tasks = draw(st.integers(1, 6))
    dims = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 2)) + 1)]
    layout = Layout([(1, k) for k in dims[:-1]], [(d, 1) for d in dims[1:]], (1, dims[-1]),
                    num_tasks)
    scope = draw(st.sampled_from(SCOPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stacks = []
    for _ in range(draw(st.integers(1, 8))):
        rows = rng.standard_normal((num_tasks, layout.size))
        for t in range(num_tasks):
            for _, cols in layout.groups(scope):
                if draw(st.integers(0, 3)) == 0:  # a zero norm: cosine 0.0
                    rows[t, cols] = 0.0
        stacks.append(GradientStack(layout.task_ids, rows, layout))
    return scope, stacks


def _row_bits(pairs):
    return [(p.step, p.i, p.j, p.block, p.dot.hex(), p.cosine.hex(), p.conflicted)
            for p in pairs]


@settings(max_examples=60, deadline=None)
@given(run=gram_runs())
def test_one_run_report_equals_its_one_step_reports_bit_for_bit(run):
    # the trainer builds one report from a run's stacked Gram matrices; each
    # step's slice of it must be the report of that step alone
    scope, stacks = run
    grams = np.stack([group_grams(stack, scope, step_outs(stack, scope).grams) for stack in stacks])
    layout = stacks[0].layout
    report = build_conflict_report(layout, scope, grams)
    singles = [step_report(stack, scope) for stack in stacks]
    assert len(report.dot) == len(stacks)
    assert (report.scope, report.labels, report.num_tasks) == (scope, layout.labels(scope),
                                                               layout.num_tasks)
    for s, single in enumerate(singles):
        for got, want in ((report.dot[s], single.dot[0]), (report.cosine[s], single.cosine[0])):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the run's rows number its steps from 0; each single report's step is 0
    assert _row_bits(report.pairs) == [(s, *row[1:]) for s, single in enumerate(singles)
                                       for row in _row_bits(single.pairs)]
