"""The float64 matrix type, its whole-array tests and seeded randomness.

Matrices are plain 2-D ``numpy.ndarray`` objects in C (row-major) order,
double precision throughout; numerics are numpy's own. ``same_bits`` and
``all_finite`` test a whole array.

Randomness: :class:`Rng` wraps ``numpy.random.Generator`` seeded from a
PCG64 bit generator. Normal deviates come from numpy's ziggurat sampler on
that stream, so a fixed seed reproduces the same matrices on every run.
Named substreams are derived with ``SeedSequence(seed, spawn_key=(k,))``,
which keeps independent concerns (init, data order, task shuffling) from
perturbing each other's streams.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

Matrix = np.ndarray


class Rng:
    """Deterministic random source: PCG64 stream behind numpy's Generator.

    The same (seed, spawn_key) pair yields the same sequence of draws; all
    sampling in the package goes through this class so that experiment seeds
    fully determine every output.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        if not 0 <= int(seed) < 2**64:
            raise ParameterError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.seed = int(seed)
        self.spawn_key = _spawn_key
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=_spawn_key))
        )

    def child(self, stream: int) -> "Rng":
        """Independent named substream; `stream` indices are fixed per use site."""
        return Rng(self.seed, self.spawn_key + (int(stream),))

    def permutations(self, count: int, n: int) -> np.ndarray:
        """count shuffles of range(n) as (count, n) int64 rows, in one call: the rows,
        and the stream after them, of count ``Generator.permutation(n)`` draws."""
        return self._gen.permuted(np.tile(np.arange(n), (count, 1)), axis=1)

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()`` for a float64 array, in one BLAS pass when it
    holds: an inf or NaN entry makes the sum of squares inf or NaN, so a
    finite ``np.vdot(a, a)`` proves every entry finite, and only a sum that
    is not finite pays for the full scan, which tells a non-finite entry from
    finite squares whose sum overflowed. ``np.vdot`` raises no numpy warning
    on that overflow; ``np.dot`` does."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def gaussian_matrix(rows: int, cols: int, sigma: float, rng: Rng) -> Matrix:
    """rows x cols matrix of i.i.d. N(0, sigma^2) entries drawn from rng."""
    if rows < 1 or cols < 1:
        raise ParameterError(f"gaussian_matrix: dimensions must be >= 1, got {rows}x{cols}")
    if not sigma > 0:
        raise ParameterError(f"gaussian_matrix: sigma must be > 0, got {sigma}")
    return rng.standard_normal((rows, cols)) * sigma
