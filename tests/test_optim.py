import numpy as np
import pytest

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
        params = np.stack([_params(20 + t) for t in range(3)])
        state = AdamWState()
        adamw_step(params, np.ones_like(params), state, lr=0.01)
        before = (params.copy(), state.m.copy(), state.v.copy())
        update = np.zeros_like(params)
        update[1, 7] = np.nan
        with pytest.raises(NumericError, match="row 1, column 7$"):
            adamw_step(params, update, state, lr=0.01)
        assert state.step == 1
        for now, then in zip((params, state.m, state.v), before):
            assert np.array_equal(now, then)

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

    def test_shape_mismatch_rejected(self):
        params = _params(11)
        before = params.copy()
        state = AdamWState()
        with pytest.raises(ShapeError):
            adamw_step(params, np.ones(SIZE - 1), state, lr=0.01)
        assert np.array_equal(params, before) and state.step == 0


class TestLinearDecay:
    def test_schedule_start(self):
        assert linear_decay_lr(0, 100, 5e-4) == 5e-4

    def test_schedule_end(self):
        assert linear_decay_lr(100, 100, 5e-4) == 0.0

    def test_midpoint(self):
        assert linear_decay_lr(50, 100, 5e-4) == pytest.approx(2.5e-4, rel=1e-15)

    def test_step_past_end_rejected(self):
        with pytest.raises(ParameterError):
            linear_decay_lr(101, 100, 5e-4)

    def test_bad_total(self):
        with pytest.raises(ParameterError):
            linear_decay_lr(0, 0, 5e-4)
