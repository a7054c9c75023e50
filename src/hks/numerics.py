"""Dense vector math for the training core.

One level's teacher table and the one tempered softmax, which gives a
distribution and its log from a single exponent; the batched losses and
their gradients live in `models`.
Everything is float64 and purely functional.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


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
