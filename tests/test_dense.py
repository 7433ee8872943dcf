import numpy as np
import pytest

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
        assert np.array_equal(Rng(3).permutation(10), Rng(3).permutation(10))
