"""AdamW with decoupled weight decay on flat parameter vectors, plus a run's linear LR column."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError, ShapeError


@dataclass  # also the config's optimizer section: the metadata declares how config.py reads it
class AdamWHyper:
    lr_base: float = field(default=5e-4, metadata={"type": float, "ge": 0.0})
    beta1: float = field(default=0.9, metadata={"type": float, "ge": 0.0, "lt": 1})
    beta2: float = field(default=0.999, metadata={"type": float, "ge": 0.0, "lt": 1})
    eps: float = field(default=1e-8, metadata={"type": float, "gt": 0.0})
    weight_decay: float = field(default=0.0, metadata={"type": float, "ge": 0.0})


@dataclass
class AdamWState:
    """First/second moments shaped like the parameter vector; they appear on the first step."""

    hyper: AdamWHyper = field(default_factory=AdamWHyper)
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adamw_step(params: np.ndarray, grad: np.ndarray, state: AdamWState, lr: float) -> None:
    """One AdamW step, in place on a flat parameter vector or an (R, P) stack of them.

    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta)

    Every entry moves, so params holds only what trains: never the frozen
    backbone weights, nor, in SINGLE_TASK's stack, another task's head.
    Bad input is rejected before the state or a parameter changes: the
    first non-finite gradient entry, else the first whose square, v's
    increment, overflows, named by its flat index, or in a stack by its row
    (the run) and column. The check is one BLAS sum of squares (``np.vdot``,
    which warns of no overflow), and the full scans only when that sum is
    not finite, so finite squares whose sum overflows pass.
    """
    if not 0 <= lr < float("inf"):
        raise ParameterError(f"learning rate must be finite and >= 0, got {lr}")
    if grad.shape != params.shape:
        raise ShapeError(f"gradient {grad.shape} vs parameters {params.shape}")
    if not math.isfinite(np.vdot(grad, grad)):
        with np.errstate(over="ignore", invalid="ignore"):
            squares = grad * grad
        for fine, what in ((np.isfinite(grad), "non-finite gradient entry"),
                           (np.isfinite(squares), "gradient entry too large to square")):
            if not fine.all():
                where = np.unravel_index(int(np.argmin(fine)), grad.shape)
                raise NumericError(f"{what} at " + (f"row {where[0]}, column {where[1]}"
                                                    if grad.ndim == 2 else f"flat index {where[0]}"))
    h = state.hyper
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    m *= h.beta1
    m += (1.0 - h.beta1) * grad
    v *= h.beta2
    v += (1.0 - h.beta2) * (grad * grad)
    # the formula above, operation by operation and in its order (so bit for
    # bit), in place on two scratch arrays instead of a temporary per operation
    update = m / (1.0 - h.beta1**t)  # m_hat
    denom = v / (1.0 - h.beta2**t)  # v_hat
    np.sqrt(denom, out=denom)
    denom += h.eps
    update /= denom
    if h.weight_decay:  # adding 0 * params moves no finite parameter by a bit
        update += h.weight_decay * params
    update *= lr
    params -= update


def linear_decay_lr(total_steps: int, lr_base: float) -> np.ndarray:
    """A run's (total_steps,) lr column: entry s is lr_base * (1 - s / total_steps),
    bit for bit as that scalar formula, falling linearly towards the zero of
    step total_steps. Zero steps give an empty column."""
    if total_steps < 0:
        raise ParameterError(f"total_steps must be >= 0, got {total_steps}")
    return lr_base * (1.0 - np.arange(total_steps) / total_steps)
