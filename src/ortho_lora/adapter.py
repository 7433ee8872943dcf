"""Low-rank adapter pairs on frozen linear layers, and their JSON dump format.

An adapter holds the trainable pair (a, b) next to a frozen base weight w0:
the effective weight is ``w0 + (alpha / rank) * b @ a``. A fresh adapter has
b identically zero, so a freshly adapted layer computes exactly what the
frozen layer computes. Setting alpha equal to rank removes the scale factor.
The forward pass itself is ``model.forward_features``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dense import Matrix, Rng, as_matrix, gaussian_matrix
from .errors import ConfigError, ParameterError
from .files import atomic_write

ADAPTER_FORMAT = "ortho-lora-adapter"
ADAPTER_FORMAT_VERSION = 1


@dataclass
class LoraAdapter:
    """Trainable pair: a is rank x k, b is d x rank, update scaled by alpha/rank."""

    a: Matrix
    b: Matrix
    rank: int
    alpha: float

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    @property
    def d(self) -> int:
        return self.b.shape[0]

    @property
    def k(self) -> int:
        return self.a.shape[1]


@dataclass
class FrozenLayer:
    """Frozen base weight w0 (d x k) plus its trainable adapter."""

    w0: Matrix
    adapter: LoraAdapter


def init_adapter(d: int, k: int, rank: int, sigma: float, alpha: float, rng: Rng) -> LoraAdapter:
    """Gaussian a ~ N(0, sigma^2), zero b; rank must fit inside min(d, k)."""
    if not 1 <= rank <= min(d, k):
        raise ParameterError(
            f"init_adapter: rank {rank} outside [1, min(d={d}, k={k})={min(d, k)}]"
        )
    a = gaussian_matrix(rank, k, sigma, rng)
    b = np.zeros((d, rank), dtype=np.float64)
    return LoraAdapter(a=a, b=b, rank=rank, alpha=float(alpha))


def save_adapter(adapter: LoraAdapter, path: str | Path) -> None:
    """Versioned JSON dump; floats round-trip exactly via repr serialization."""
    payload = {
        "format": ADAPTER_FORMAT,
        "version": ADAPTER_FORMAT_VERSION,
        "d": adapter.d,
        "k": adapter.k,
        "rank": adapter.rank,
        "alpha": adapter.alpha,
        "a": adapter.a.tolist(),
        "b": adapter.b.tolist(),
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload))


def load_adapter(path: str | Path) -> LoraAdapter:
    """Read a save_adapter dump; bad content raises ConfigError naming the file and field."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or text encoding
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != ADAPTER_FORMAT:
        raise ConfigError(f"{path}: not an adapter dump (no \"format\": \"{ADAPTER_FORMAT}\")")
    if payload.get("version") != ADAPTER_FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported adapter format version {payload.get('version')!r}")
    fields = {}
    for name, read in (("a", as_matrix), ("b", as_matrix), ("d", int), ("k", int), ("rank", int),
                       ("alpha", float)):
        if name not in payload:
            raise ConfigError(f"{path}: missing field {name!r}")
        if read is int and type(payload[name]) is not int:  # int() truncates 2.9 and reads true as 1
            raise ConfigError(f"{path}: field {name!r}: must be an integer, got {payload[name]!r}")
        try:
            fields[name] = read(payload[name])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: field {name!r}: {exc}") from None
    for name in ("a", "b"):
        if not np.isfinite(fields[name]).all():
            raise ConfigError(f"{path}: field {name!r}: non-finite entry")
    if not (np.isfinite(fields["alpha"]) and fields["alpha"] > 0):
        raise ConfigError(f"{path}: field 'alpha': must be finite and > 0, got {fields['alpha']}")
    a, b, rank = fields["a"], fields["b"], fields["rank"]
    if a.shape != (rank, fields["k"]) or b.shape != (fields["d"], rank):
        raise ConfigError(
            f"{path}: stored shapes a={a.shape}, b={b.shape} disagree with header "
            f"(d={fields['d']}, k={fields['k']}, rank={rank})"
        )
    return LoraAdapter(a=a, b=b, rank=rank, alpha=fields["alpha"])
