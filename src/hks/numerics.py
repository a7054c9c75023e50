"""Dense vector math for the training core.

Distillation settings, one level's teacher table and the one tempered
softmax, which gives a distribution and its log from a single exponent; the
batched losses and their gradients live in `models`.
Everything is float64 and purely functional.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

Array = np.ndarray


@dataclass(frozen=True)
class KdConfig:
    """Distillation knobs: softening temperature and loss weight.

    The temperature default is a conventional choice and is recorded in every
    experiment report. The distillation term always carries a factor T^2
    (Hinton et al., arXiv:1503.02531), which keeps its gradient magnitude
    comparable to cross-entropy across temperatures, so T^2 must be finite.
    """

    temperature: float = 3.0
    alpha_kd: float = 1.5

    def __post_init__(self) -> None:
        # chained comparisons are False for NaN, so they reject it too
        if not 0 < self.temperature < math.inf:
            raise ConfigError(f"constraint violation on 'temperature' (got {self.temperature!r})")
        # T * T, not T ** 2: a float's ** raises OverflowError where * gives inf
        if not self.temperature * self.temperature < math.inf:
            raise ConfigError(f"constraint violation on 'temperature' (got {self.temperature!r}): T^2 overflows")
        if not 0 <= self.alpha_kd < math.inf:
            raise ConfigError(f"constraint violation on 'alpha_kd' (got {self.alpha_kd!r})")


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


def tempered_softmax(Z: Array, temperature: float) -> tuple[Array, Array]:
    """Softmax of Z / T over the last axis and its log, (P, log_P), from one
    shifted exponent: P = E / sum(E) and log_P = S - log(sum(E)), where S is
    Z / T minus its row max and E = exp(S). Z / 1.0 is Z bit for bit, so
    T == 1 skips the divide; S is still a fresh array, Z is never written and
    neither result shares memory with it, so callers may edit P in place."""
    S = Z if temperature == 1.0 else Z / temperature
    S = S - S.max(axis=-1, keepdims=True)
    E = np.exp(S)
    Zsum = E.sum(axis=-1, keepdims=True)
    return E / Zsum, S - np.log(Zsum)


def teacher_table(logits: Array, has: Array, temperature: float) -> TeacherTable:
    """Table of one level of teacher logits (n, C) under its mask (n,).

    Every row with a teacher is softened at the temperature by
    `tempered_softmax`; rows without one are zero in q and h.
    """
    P, log_P = tempered_softmax(np.where(has[:, None], logits, 0.0), temperature)
    return TeacherTable(np.where(has[:, None], P, 0.0), np.where(has, (P * log_P).sum(axis=-1), 0.0), has)
