"""A run's window of steps: the losses, and JOINT's Gram matrices, computed
once per window over the buffers its steps left, against each step's own
computation and against the per-step reference run, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    TaskView,
    generator,
    random_batch,
    random_model,
    reference_run,
    scatter_losses,
    stack_views,
    step_batch,
    step_losses,
)

from ortho_lora import trainer
from ortho_lora.config import JOINT, VALID_MODES, config_from_dict
from ortho_lora.dense import same_bits
from ortho_lora.model import (
    CLASSIFICATION,
    FLAT,
    PER_MATRIX,
    PER_ROLE_CONCAT,
    REGRESSION,
    _output_gradient,
    stack_runs,
    window_losses,
)
from ortho_lora.optim import AdamWState
from ortho_lora.surgery import group_grams
from ortho_lora.trainer import StepWindow, run_mode, train_step

_ONE_KIND = st.sampled_from([REGRESSION, CLASSIFICATION]).flatmap(
    lambda kind: st.lists(st.just(kind), min_size=1, max_size=8))
_BOTH_KINDS = st.lists(st.sampled_from([REGRESSION, CLASSIFICATION]), min_size=2,
                       max_size=8).filter(lambda kinds: len(set(kinds)) == 2)


def _head_step(kinds, out_dim, n, rng):
    """One step's (T, o, n) head output and its stacked targets, drawn from rng."""
    out = 3.0 * rng.standard_normal((len(kinds), out_dim, n))
    batches = [TaskView(t, np.zeros((1, n)), rng.standard_normal((out_dim, n))
                        if kind == REGRESSION else rng.integers(0, out_dim, n))
               for t, kind in enumerate(kinds)]
    return out, stack_views(kinds, batches).targets


@settings(max_examples=80, deadline=None)
@given(kinds=st.one_of(_ONE_KIND, _BOTH_KINDS), out_dim=st.integers(2, 4),
       n=st.integers(1, 6), steps=st.integers(1, 40), seed=st.integers(0, 2**16))
@example(kinds=[REGRESSION] * 3, out_dim=4, n=1, steps=7, seed=0)
@example(kinds=[CLASSIFICATION] * 3, out_dim=3, n=1, steps=7, seed=1)
@example(kinds=[REGRESSION, CLASSIFICATION, REGRESSION], out_dim=3, n=1, steps=7, seed=2)
def test_window_losses_equal_one_step_calls(kinds, out_dim, n, steps, seed):
    # k steps' saved slabs stacked as (k, T, o, n): one call gives, row for row,
    # the bits of k one-step calls and of the losses the step once computed
    rng = generator(seed)
    drawn = [_head_step(kinds, out_dim, n, rng) for _ in range(steps)]
    saved = np.empty((steps, len(kinds), out_dim, n))
    for slot, (out, targets) in zip(saved, drawn):
        slot[...] = out
        _output_gradient(slot, targets, np.empty_like(out))
    got = window_losses(saved, [targets for _, targets in drawn])
    assert got.shape == (steps, len(kinds))
    for s, (out, targets) in enumerate(drawn):
        one = window_losses(saved[s:s + 1], [targets])
        assert got[s].tobytes() == one[0].tobytes(), f"step {s}"
        assert got[s].tobytes() == np.array(scatter_losses(out, targets)[0]).tobytes()


@settings(max_examples=40, deadline=None)
@given(depth=st.integers(1, 3), kinds=st.lists(st.sampled_from([REGRESSION, CLASSIFICATION]),
                                               min_size=2, max_size=5),
       scope=st.sampled_from([FLAT, PER_MATRIX, PER_ROLE_CONCAT]), steps=st.integers(1, 12),
       entries=st.integers(1, 600), seed=st.integers(0, 2**16))
def test_joint_window_grams_equal_each_steps_group_grams(depth, kinds, scope, steps, entries,
                                                         seed):
    # JOINT's steps leave their adapter rows; each window's batched V V^T per
    # group fills the Gram store with every step's own group_grams bits, and
    # its losses column with every step's own losses, whatever the window size
    model = random_model(seed, layer_dims=(6, 5, 4, 3)[:depth + 1], rank=2, kinds=kinds,
                         randomize_b=True)
    stack, count, n = stack_runs(model, 1), len(kinds), 4
    groups = len(model.layout.groups(scope))
    losses, grams = np.empty((steps, count)), np.empty((steps, groups, count, count))
    want_losses, want_grams = [], np.empty_like(grams)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "WINDOW_ENTRIES", entries)
        window = StepWindow(stack, losses, n, scope, grams)
    opt_state = AdamWState()
    for s in range(steps):
        batch = step_batch(model, [random_batch(model, t, n, seed=seed + 31 * s + t)
                                   for t in range(count)])
        train_step(JOINT, stack, batch, opt_state, 0.01, scope)
        group_grams(stack.step.grads, scope, want_grams[s])
        want_losses.append(step_losses(stack, batch))
        window.keep(stack.step, batch)
    window.flush()
    assert same_bits(grams, want_grams)
    assert losses.tobytes() == np.array(want_losses).tobytes()


def _mixed_config(mode):
    """Three tasks of both kinds on two layers, 7 steps per epoch, 2 epochs."""
    return config_from_dict({
        "version": 1, "seed": 3, "modes": [mode],
        "model": {"layer_dims": [6, 5, 4], "rank": 2, "alpha": 4.0, "sigma_init": 0.02},
        "schedule": {"epochs": 2, "batch_size": 8, "steps_per_epoch": 7},
        "tasks": {"kind": [REGRESSION, CLASSIFICATION, REGRESSION], "in_dim": 6, "out_dim": 3,
                  "conflict_level": 0.9, "noise_sigma": 0.1, "n_train": 32, "n_eval": 8},
    })


@pytest.mark.parametrize("mode", VALID_MODES)
def test_a_run_whose_windows_end_mid_epoch_equals_the_reference_loop(mode, monkeypatch):
    # 360 entries hold 3 JOINT steps of 3 tasks' 40 adapter columns, or 5
    # steps of the others' 3 x 24 loss entries: windows of 3 or 5 steps over
    # epochs of 7, so every mode has a window that ends mid-epoch
    cfg = _mixed_config(mode)
    sizes = []

    def spy(saved, targets):
        sizes.append(len(saved))
        return window_losses(saved, targets)

    monkeypatch.setattr(trainer, "WINDOW_ENTRIES", 360)
    monkeypatch.setattr(trainer, "window_losses", spy)
    log, models = run_mode(cfg, mode)
    assert sum(sizes) == cfg.total_steps() == 14
    assert any(end % 7 for end in np.cumsum(sizes)[:-1]), sizes
    losses, lrs, report, metrics, matrix = reference_run(cfg, mode)
    assert log.losses.tobytes() == np.array(losses).tobytes()
    assert log.lrs.tolist() == lrs
    assert log.conflicts == ([] if report is None else [report])
    assert log.metrics.tobytes() == np.array(metrics).tobytes()
    assert np.array([m.params for m in models]).tobytes() == matrix.tobytes()
