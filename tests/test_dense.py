import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import generator

from ortho_lora.dense import Rng, gaussian_matrix
from ortho_lora.errors import ParameterError


class TestGaussianMatrix:
    def test_same_seed_identical(self):
        a = gaussian_matrix(5, 7, 0.3, Rng(42))
        b = gaussian_matrix(5, 7, 0.3, Rng(42))
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = gaussian_matrix(5, 7, 0.3, Rng(42))
        b = gaussian_matrix(5, 7, 0.3, Rng(43))
        assert not np.array_equal(a, b)

    def test_moments_seed_averaged(self):
        # law of large numbers over 5 seeds x 1e6 samples each
        means, stds = [], []
        for seed in range(5):
            m = gaussian_matrix(1000, 1000, 1.0, Rng(seed))
            means.append(m.mean())
            stds.append(m.std())
        assert -0.01 < np.mean(means) < 0.01
        assert 0.99 < np.mean(stds) < 1.01

    def test_tail_bound(self):
        m = gaussian_matrix(4, 4, 0.02, Rng(5))
        assert np.abs(m).max() < 0.2  # 10 sigma

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_bad_sigma(self, sigma):
        with pytest.raises(ParameterError):
            gaussian_matrix(2, 2, sigma, Rng(0))

    def test_bad_dims(self):
        with pytest.raises(ParameterError):
            gaussian_matrix(0, 3, 1.0, Rng(0))


class TestRng:
    def test_seed_range(self):
        with pytest.raises(ParameterError):
            Rng(-1)
        with pytest.raises(ParameterError):
            Rng(2**64)

    def test_child_streams_independent_and_reproducible(self):
        a1 = Rng(9).child(0).standard_normal(4)
        a2 = Rng(9).child(0).standard_normal(4)
        b = Rng(9).child(1).standard_normal(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_permutation_deterministic(self):
        assert np.array_equal(Rng(3).permutations(4, 10), Rng(3).permutations(4, 10))


def _check_permutations(seed, spawn_key, count, n):
    rng = Rng(seed)
    for stream in spawn_key:
        rng = rng.child(stream)
    want = generator(seed, *spawn_key)
    got = rng.permutations(count, n)
    # the dtype and shape hold at count 0, where no row is drawn
    assert got.dtype == np.int64 and got.shape == (count, n)
    for row in got:
        assert np.array_equal(row, want.permutation(n))
    # the stream is left where count sequential draws leave it
    assert np.array_equal(rng.permutations(1, n)[0], want.permutation(n))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), spawn_key=st.lists(st.integers(0, 7), max_size=2),
       count=st.integers(0, 64), n=st.integers(1, 32))
def test_permutations_equal_sequential_numpy_draws(seed, spawn_key, count, n):
    # one Generator.permuted call over count copies of range(n) draws, and
    # leaves the stream, as count Generator.permutation(n) calls in a row
    _check_permutations(seed, spawn_key, count, n)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), count=st.integers(0, 64))
def test_permutations_equal_sequential_numpy_draws_of_a_pool(seed, count):
    # n = 480: the train pool of configs/default.json, a data-order block row
    _check_permutations(seed, (2,), count, 480)
