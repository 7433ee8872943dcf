import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortho_lora.dense import Rng
from ortho_lora.errors import NumericError, ParameterError, ShapeError
from ortho_lora.model import Layout
from ortho_lora.optim import AdamWHyper, AdamWState, adamw_step, linear_decay_lr


# a flat vector laid out as one layer's A (2x3), B (3x2) and one head (1x3)
LAYOUT = Layout([(2, 3)], [(3, 2)], (1, 3), 1)
SIZE = 15


def _params(seed=0):
    return Rng(seed).standard_normal(SIZE)


class TestAdamwStep:
    def test_zero_gradient_no_decay_leaves_params(self):
        params = _params()
        before = params.copy()
        state = AdamWState()
        adamw_step(params, np.zeros(SIZE), state, lr=0.1)
        assert state.step == 1
        assert np.array_equal(params, before)

    def test_first_step_magnitude_close_to_lr(self):
        params = _params(1)
        before = params.copy()
        rng = Rng(2)
        update = rng.standard_normal(SIZE) + np.sign(rng.standard_normal(SIZE)) * 0.5
        lr = 0.01
        adamw_step(params, update, AdamWState(), lr=lr)
        delta = np.abs(params - before)
        mask = np.abs(update) > 1e-4  # |g| >> eps
        assert np.all(delta[mask] <= lr * (1 + 1e-12))
        assert np.all(delta[mask] >= 0.99 * lr)

    def test_decay_only_closed_form(self):
        params = _params(3)
        before = params.copy()
        state = AdamWState(hyper=AdamWHyper(weight_decay=0.1))
        adamw_step(params, np.zeros(SIZE), state, lr=0.01)
        assert np.allclose(params, before * (1.0 - 0.001), rtol=1e-15, atol=0)

    def test_determinism(self):
        results = []
        for _ in range(2):
            params = _params(4)
            update = Rng(5).standard_normal(SIZE)
            state = AdamWState()
            for _ in range(5):
                adamw_step(params, update, state, lr=0.02)
            results.append(params.copy())
        assert np.array_equal(results[0], results[1])

    def test_nonfinite_gradient_names_block(self):
        # the message names the flat index, which the layout maps to block L0.B
        params = _params(6)
        before = params.copy()
        update = np.zeros(SIZE)
        b_slice = LAYOUT.blocks["L0.B"][0]
        update[b_slice.start + 4] = np.nan
        state = AdamWState()
        with pytest.raises(NumericError, match=f"flat index {b_slice.start + 4}$"):
            adamw_step(params, update, state, lr=0.01)
        assert np.array_equal(params, before) and state.step == 0 and state.m is None

    def test_nonfinite_stack_entry_names_row_and_column(self):
        # a (T, R) stack of parameter vectors: the error names the model's row
        # and column of the first non-finite entry in row-major order, among
        # finite entries whose squares overflow
        params = np.stack([_params(20 + t) for t in range(3)])
        state = AdamWState()
        adamw_step(params, np.ones_like(params), state, lr=0.01)
        before = (params.copy(), state.m.copy(), state.v.copy())
        update = np.full_like(params, 1e200)
        update[1, 7], update[1, 9], update[2, 0] = np.nan, -np.inf, np.inf
        with pytest.raises(NumericError, match="row 1, column 7$"):
            adamw_step(params, update, state, lr=0.01)
        assert state.step == 1
        for now, then in zip((params, state.m, state.v), before):
            assert np.array_equal(now, then)

    @pytest.mark.parametrize("magnitude", [1e154, 1e200])
    def test_a_finite_gradient_whose_sum_of_squares_overflows_takes_the_step(self, magnitude):
        # the guard's sum of squares is inf, and its full scan finds every
        # entry finite; at 1e200 AdamW's own v = grad * grad overflows as well
        params = np.stack([_params(40 + t) for t in range(3)])
        before = params.copy()
        state = AdamWState()
        with np.errstate(over="ignore"):
            adamw_step(params, np.full_like(params, magnitude), state, lr=0.01)
        assert state.step == 1 and np.isfinite(params).all()
        if magnitude == 1e154:  # v stays finite: Adam's first step moves each entry by lr
            np.testing.assert_allclose(before - params, 0.01, rtol=1e-12)

    def test_moment_shapes_track_params(self):
        params = _params(7)
        update = Rng(8).standard_normal(SIZE)
        state = AdamWState()
        for _ in range(3):
            adamw_step(params, update, state, lr=0.01)
        assert state.m.shape == params.shape
        assert state.v.shape == params.shape
        assert np.all(state.v >= 0)

    def test_negative_lr_rejected(self):
        params = _params(10)
        before = params.copy()
        state = AdamWState()
        with pytest.raises(ParameterError):
            adamw_step(params, np.ones(SIZE), state, lr=-0.1)
        assert np.array_equal(params, before) and state.step == 0

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf])
    def test_non_finite_lr_rejected_before_anything_moves(self, lr):
        params = _params(12)
        state = AdamWState()
        adamw_step(params, np.ones(SIZE), state, lr=0.01)
        before = (params.copy(), state.m.copy(), state.v.copy())
        with pytest.raises(ParameterError, match="finite"):
            adamw_step(params, np.ones(SIZE), state, lr=lr)
        assert state.step == 1
        for now, then in zip((params, state.m, state.v), before):
            assert np.array_equal(now, then)

    def test_shape_mismatch_rejected(self):
        params = _params(11)
        before = params.copy()
        state = AdamWState()
        with pytest.raises(ShapeError):
            adamw_step(params, np.ones(SIZE - 1), state, lr=0.01)
        assert np.array_equal(params, before) and state.step == 0


def _textbook_adamw(params, grads, lrs, hyper):
    """AdamW written out one operation at a time, always adding weight_decay *
    theta: the (params, m, v) after one step per (grad, lr)."""
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    for t, (grad, lr) in enumerate(zip(grads, lrs), start=1):
        m = hyper.beta1 * m + (1.0 - hyper.beta1) * grad
        v = hyper.beta2 * v + (1.0 - hyper.beta2) * (grad * grad)
        m_hat = m / (1.0 - hyper.beta1**t)
        v_hat = v / (1.0 - hyper.beta2**t)
        params = params - lr * (m_hat / (np.sqrt(v_hat) + hyper.eps) + hyper.weight_decay * params)
    return params, m, v


# zeros of both signs, so that zero updates meet +-0.0 parameters
VALUE = st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0])


@settings(max_examples=80, deadline=None)
@given(shape=st.sampled_from([(SIZE,), (3, 5)]), weight_decay=st.sampled_from([0.0, 0.01, 0.5]),
       steps=st.integers(1, 4), data=st.data())
def test_adamw_step_equals_textbook_reference_bit_for_bit(shape, weight_decay, steps, data):
    def draw():
        size = math.prod(shape)
        return np.array(data.draw(st.lists(VALUE, min_size=size, max_size=size))).reshape(shape)

    params = draw()
    grads = [draw() for _ in range(steps)]
    lrs = [data.draw(st.floats(0.0, 0.1)) for _ in range(steps)]
    hyper = AdamWHyper(weight_decay=weight_decay)
    want = _textbook_adamw(params, grads, lrs, hyper)
    state = AdamWState(hyper=hyper)
    for grad, lr in zip(grads, lrs):
        adamw_step(params, grad, state, lr)
    assert state.step == steps
    for got, ref in zip((params, state.m, state.v), want):
        assert got.tobytes() == ref.tobytes()  # -0.0 and 0.0 differ here


class TestLinearDecay:
    """linear_decay_lr gives a run's whole (S,) lr column in one call."""

    def test_schedule_start(self):
        assert linear_decay_lr(100, 5e-4)[0] == 5e-4

    def test_schedule_end(self):
        # the column stops one step short of zero: step S would have lr 0.0
        column = linear_decay_lr(100, 5e-4)
        assert column.shape == (100,) and column[-1] == 5e-4 * (1.0 - 99 / 100) > 0.0
        assert linear_decay_lr(1, 5e-4).tolist() == [5e-4]

    def test_midpoint(self):
        assert linear_decay_lr(100, 5e-4)[50] == pytest.approx(2.5e-4, rel=1e-15)

    def test_zero_steps_give_an_empty_column(self):
        column = linear_decay_lr(0, 5e-4)
        assert column.shape == (0,) and column.dtype == np.float64

    def test_bad_total(self):
        for total in (-1, -100):
            with pytest.raises(ParameterError, match=f"total_steps must be >= 0, got {total}"):
                linear_decay_lr(total, 5e-4)

    @settings(max_examples=200, deadline=None)
    @given(total=st.integers(0, 5000), lr_base=st.floats(0.0, allow_infinity=False))
    def test_column_equals_the_scalar_formula_bit_for_bit(self, total, lr_base):
        # any lr_base the config accepts (finite, >= 0): each entry has the
        # bits of lr_base * (1 - s / S), the per-step formula it replaced
        column = linear_decay_lr(total, lr_base)
        assert column.dtype == np.float64 and column.shape == (total,)
        assert [x.hex() for x in column.tolist()] == [
            (lr_base * (1.0 - s / total)).hex() for s in range(total)]
