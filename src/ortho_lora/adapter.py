"""Low-rank adapter pairs on frozen linear layers, and their JSON dump format.

An adapter holds the trainable pair (a, b) next to a frozen base weight w0:
the effective weight is ``w0 + (alpha / rank) * b @ a``. A fresh adapter has
b identically zero, so a freshly adapted layer computes exactly what the
frozen layer computes. Setting alpha equal to rank removes the scale factor.
The training forward runs inside ``model.joint_gradient``, as w0 h +
s*b@(a h); ``model.eval_metric`` runs each layer through its effective
weight, merged once per call.

A dump's fields are declared once, as ``AdapterRecord`` in config's field
metadata: ``save_adapter`` writes one and ``load_adapter`` reads one with
config's loop, so a bad dump names the file and field (``adapter.a[0][1]``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import _check, _field, _load, _read
from .dense import Matrix, Rng, gaussian_matrix
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


@dataclass
class FrozenLayer:
    """Frozen base weight w0 (d x k) plus its trainable adapter."""

    w0: Matrix
    adapter: LoraAdapter


def init_adapter(d: int, k: int, rank: int, sigma: float, alpha: float, rng: Rng) -> LoraAdapter:
    """Gaussian a ~ N(0, sigma^2), zero b; rank must fit inside min(d, k)."""
    if not 1 <= rank <= min(d, k):
        raise ParameterError(f"init_adapter: rank {rank} outside [1, min(d={d}, k={k})={min(d, k)}]")
    a = gaussian_matrix(rank, k, sigma, rng)
    b = np.zeros((d, rank), dtype=np.float64)
    return LoraAdapter(a=a, b=b, rank=rank, alpha=float(alpha))


def _rows(value, path: str, _section: dict) -> list[list[float]]:
    """A matrix as a list of rows of finite JSON numbers, each read as a float."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ConfigError(f"{path}: expected a list of rows of numbers")
    return [[_check(v, f"{path}[{i}][{j}]", {"type": float}) for j, v in enumerate(row)]
            for i, row in enumerate(value)]


@dataclass
class AdapterRecord:
    """A dump's fields, in file order: a is rank x k and b is d x rank, as rows."""

    format: str = _field(str, equals=ADAPTER_FORMAT)
    version: int = _field(int, equals=ADAPTER_FORMAT_VERSION)
    d: int = _field(int, ge=1)
    k: int = _field(int, ge=1)
    rank: int = _field(int, ge=1)
    alpha: float = _field(float, gt=0.0)
    a: list[list[float]] = field(metadata={"read": _rows})
    b: list[list[float]] = field(metadata={"read": _rows})


def save_adapter(adapter: LoraAdapter, path: str | Path) -> None:
    """Versioned JSON dump; floats round-trip exactly via repr serialization."""
    record = AdapterRecord(ADAPTER_FORMAT, ADAPTER_FORMAT_VERSION, len(adapter.b), adapter.a.shape[1],
                           adapter.rank, adapter.alpha, adapter.a.tolist(), adapter.b.tolist())
    with atomic_write(path) as fh:
        fh.write(json.dumps(vars(record)))


def _adapter(raw) -> LoraAdapter:
    record = _read(AdapterRecord, raw, "adapter")
    for name, rows, cols in (("a", record.rank, record.k), ("b", record.d, record.rank)):
        if [len(row) for row in getattr(record, name)] != [cols] * rows:
            raise ConfigError(f"adapter.{name}: expected {rows} rows of {cols} numbers, as the "
                              f"header d={record.d}, k={record.k}, rank={record.rank} says")
    return LoraAdapter(np.array(record.a), np.array(record.b), record.rank, record.alpha)


def load_adapter(path: str | Path) -> LoraAdapter:
    """Read a save_adapter dump; bad content raises ConfigError naming the file and field."""
    return _load(path, "adapter", _adapter)
