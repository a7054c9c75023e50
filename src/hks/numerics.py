"""Dense vector math for the training core.

Tempered softmax, cross-entropy and KL distillation losses, their analytic
gradients, per-round teacher tables, plain SGD, and a central finite-difference
oracle. Everything is float64 and purely functional, so callers may invoke
these from any number of workers without coordination.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, ShapeError

Array = np.ndarray
Vector = Sequence[float] | Array


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
    """Cross-entropy, distillation, and combined loss for one step or round."""

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
    average over its valid rows in row order.
    """
    P = softmax_rows(logits, temperature)
    log_P = log_softmax_rows(logits / temperature)
    count = mask.sum(axis=1)
    denom = np.maximum(count, 1)
    q = np.where(mask[..., None], P, 0.0).sum(axis=1) / denom[:, None]
    h = np.where(mask, (P * log_P).sum(axis=-1), 0.0).sum(axis=1) / denom
    return TeacherTable(q, h, count > 0)


def _as_vector(z: Vector, name: str = "input") -> Array:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {z.shape}")
    return z

def _require_finite(z: Array, name: str) -> None:
    if not np.all(np.isfinite(z)):
        raise InvalidInputError(f"{name} contains non-finite values")


def softmax_t(z: Vector, temperature: float) -> Array:
    """Softened distribution exp(z_i/T) / sum_j exp(z_j/T), max-subtracted."""
    z = _as_vector(z, "logits")
    _require_finite(z, "logits")
    if not temperature > 0:
        raise InvalidInputError(f"temperature must be > 0, got {temperature}")
    s = z / temperature
    s -= s.max()
    e = np.exp(s)
    return e / e.sum()


def log_softmax(z: Array) -> Array:
    s = z - z.max()
    return s - np.log(np.exp(s).sum())


def softmax_rows(Z: Array, temperature: float = 1.0) -> Array:
    """Tempered softmax over the last axis, e.g. of (B, C) logit matrices."""
    S = Z / temperature
    S = S - S.max(axis=-1, keepdims=True)
    E = np.exp(S)
    return E / E.sum(axis=-1, keepdims=True)


def log_softmax_rows(Z: Array) -> Array:
    S = Z - Z.max(axis=-1, keepdims=True)
    return S - np.log(np.exp(S).sum(axis=-1, keepdims=True))


def cross_entropy(z: Vector, y: int) -> float:
    """-log softmax(z)[y], computed on the log-sum-exp path."""
    z = _as_vector(z, "logits")
    _require_finite(z, "logits")
    if not 0 <= y < z.shape[0]:
        raise IndexError(f"class index {y} out of range for {z.shape[0]} classes")
    m = z.max()
    lse = m + np.log(np.exp(z - m).sum())
    return float(lse - z[y])


def ce_grad(z: Vector, y: int) -> Array:
    """Analytic gradient of cross_entropy: softmax(z) - onehot(y)."""
    z = _as_vector(z, "logits")
    _require_finite(z, "logits")
    if not 0 <= y < z.shape[0]:
        raise IndexError(f"class index {y} out of range for {z.shape[0]} classes")
    g = softmax_t(z, 1.0)
    g[y] -= 1.0
    return g


def _paired(z_s: Vector, z_t: Vector) -> tuple[Array, Array]:
    z_s = _as_vector(z_s, "student logits")
    z_t = _as_vector(z_t, "teacher logits")
    if z_s.shape != z_t.shape:
        raise ShapeError(f"student/teacher length mismatch: {z_s.shape} vs {z_t.shape}")
    _require_finite(z_s, "student logits")
    _require_finite(z_t, "teacher logits")
    return z_s, z_t


def kd_loss(z_s: Vector, z_t: Vector, cfg: KdConfig) -> float:
    """Teacher-weighted KL divergence KL(q_t || q_s) at temperature T.

    Both distributions are softened with cfg.temperature; the result is
    multiplied by T^2 when cfg.t_squared_scaling is on. Terms where the
    teacher probability underflows to zero contribute nothing.
    """
    z_s, z_t = _paired(z_s, z_t)
    T = cfg.temperature
    log_qs = log_softmax(z_s / T)
    log_qt = log_softmax(z_t / T)
    q_t = np.exp(log_qt)
    kl = float(np.dot(q_t, log_qt - log_qs))
    kl = max(kl, 0.0)
    if cfg.t_squared_scaling:
        kl *= T * T
    return kl


def kd_grad(z_s: Vector, z_t: Vector, cfg: KdConfig) -> Array:
    """Gradient of kd_loss w.r.t. the student logits: (scale/T) (q_s - q_t)."""
    z_s, z_t = _paired(z_s, z_t)
    T = cfg.temperature
    scale = T * T if cfg.t_squared_scaling else 1.0
    return (scale / T) * (softmax_t(z_s, T) - softmax_t(z_t, T))


def sgd_step(params: Vector, grads: Vector, lr: float) -> Array:
    """One plain gradient step: params - lr * grads."""
    params = _as_vector(params, "params")
    grads = _as_vector(grads, "grads")
    if params.shape != grads.shape:
        raise ShapeError(f"params/grads length mismatch: {params.shape} vs {grads.shape}")
    return params - lr * grads


def finite_diff(f: Callable[[Array], float], x: Vector, eps: float = 1e-5) -> Array:
    """Central-difference gradient oracle: (f(x+eps e_i) - f(x-eps e_i)) / 2 eps."""
    x = _as_vector(x, "x")
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2.0 * eps)
    return g
