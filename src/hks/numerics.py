"""Dense vector math for the training core.

Distillation settings, loss breakdowns, per-round teacher tables and
row-wise tempered softmax and log-softmax; the batched losses and their
gradients live in `models`. Everything is float64 and purely functional, so
callers may invoke these from any number of workers without coordination.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

Array = np.ndarray


@dataclass(frozen=True)
class KdConfig:
    """Distillation knobs: softening temperature, loss weight, T^2 scaling.

    The temperature default is a conventional choice and is recorded in every
    experiment report; t_squared_scaling keeps the distillation gradient
    magnitude comparable to cross-entropy across temperatures.
    """

    temperature: float = 3.0
    alpha_kd: float = 1.5
    t_squared_scaling: bool = True

    def __post_init__(self) -> None:
        # chained comparisons are False for NaN, so they reject it too
        if not 0 < self.temperature < math.inf:
            raise InvalidInputError(f"temperature must be finite and > 0, got {self.temperature}")
        if not 0 <= self.alpha_kd < math.inf:
            raise InvalidInputError(f"alpha_kd must be finite and >= 0, got {self.alpha_kd}")


@dataclass(frozen=True)
class LossBreakdown:
    """Cross-entropy, distillation, and combined loss for one step or round;
    a stacked training step holds one (K,) array entry per model."""

    ce: float
    kd: float
    total: float


@dataclass(frozen=True)
class TeacherTable:
    """Per-sample distillation targets, fixed for one round.

    q (n, C) is the mean tempered teacher distribution, h (n,) the mean of
    sum(q_t log q_t) over a sample's teachers, and has (n,) marks samples
    with at least one teacher; rows without one are zero.
    """

    q: Array
    h: Array
    has: Array

    def take(self, idx) -> "TeacherTable":
        return TeacherTable(self.q[idx], self.h[idx], self.has[idx])


def teacher_table(logits: Array, mask: Array, temperature: float) -> TeacherTable:
    """Table from padded teacher logits (n, D, C) and their validity mask (n, D).

    Every valid row is softened at the temperature; a sample's q and h
    average over its valid rows in row order. P and log P share one shifted
    exponent, bit for bit what softmax_rows and log_softmax_rows give.
    """
    S = logits / temperature
    S = S - S.max(axis=-1, keepdims=True)
    E = np.exp(S)
    Z = E.sum(axis=-1, keepdims=True)
    P = E / Z
    log_P = S - np.log(Z)
    count = mask.sum(axis=1)
    denom = np.maximum(count, 1)
    q = np.where(mask[..., None], P, 0.0).sum(axis=1) / denom[:, None]
    h = np.where(mask, (P * log_P).sum(axis=-1), 0.0).sum(axis=1) / denom
    return TeacherTable(q, h, count > 0)


def softmax_rows(Z: Array, temperature: float = 1.0) -> Array:
    """Tempered softmax over the last axis, e.g. of (B, C) logit matrices."""
    S = Z / temperature
    S = S - S.max(axis=-1, keepdims=True)
    E = np.exp(S)
    return E / E.sum(axis=-1, keepdims=True)


def log_softmax_rows(Z: Array) -> Array:
    S = Z - Z.max(axis=-1, keepdims=True)
    return S - np.log(np.exp(S).sum(axis=-1, keepdims=True))
