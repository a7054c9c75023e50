"""Pluggable small-model zoo: three MLP capacity tiers, backprop, FedAvg.

A `Model` holds one model's flat float64 parameter vector, or a stack of K
models of one architecture as K rows of one (K, P) array; nothing here holds
hidden state. Training steps every model of a stack on its own batch at
once and updates the rows in place, so a model whose vector is a view of a
stack row sees every step. The tier layout stands in for the three backbone
depths of the reference setting; the build/forward/train surface is the
extension point for richer architectures.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, ShapeError
from .numerics import KdConfig, LossBreakdown, TeacherTable, log_softmax_rows, softmax_rows

Array = np.ndarray


class CapacityTier(str, Enum):
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"

    @classmethod
    def for_client(cls, client_id: int) -> "CapacityTier":
        """Mod-3 capacity assignment over the client index."""
        return (cls.SMALL, cls.MEDIUM, cls.LARGE)[client_id % 3]


TIER_HIDDEN: dict[CapacityTier, tuple[int, ...]] = {
    CapacityTier.SMALL: (32,),
    CapacityTier.MEDIUM: (64, 32),
    CapacityTier.LARGE: (128, 64, 32),
}


@dataclass(frozen=True)
class Model:
    """Fully-connected ReLU network(s) with flat parameter vectors.

    layer_dims runs input -> hidden... -> class count; params is one model's
    (P,) vector or K models' (K, P) rows, each holding, per layer, the
    (in_dim x out_dim) weight block row-major followed by the out_dim bias
    block.
    """

    architecture_id: str
    layer_dims: tuple[int, ...]
    params: Array

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]


def architecture_id(layer_dims: Sequence[int]) -> str:
    return "mlp-" + "-".join(str(d) for d in layer_dims)


def _layer_slices(layer_dims: Sequence[int]):
    """Yield (weight_slice, bias_slice, in_dim, out_dim) per layer."""
    off = 0
    for i, o in zip(layer_dims[:-1], layer_dims[1:]):
        w = slice(off, off + i * o)
        b = slice(off + i * o, off + i * o + o)
        off = b.stop
        yield w, b, i, o


def build_model(tier: CapacityTier, input_dim: int, n_classes: int, seed: int) -> Model:
    """Deterministic Glorot-uniform MLP for the given tier.

    Every parameter (weights and biases) of a layer is drawn uniformly from
    [-a, a] with a = sqrt(6 / (fan_in + fan_out)).
    """
    if input_dim < 1 or n_classes < 1:
        raise InvalidInputError("input_dim and class count must be >= 1")
    dims = (input_dim, *TIER_HIDDEN[CapacityTier(tier)], n_classes)
    rng = np.random.default_rng(seed)
    parts = []
    for i, o in zip(dims[:-1], dims[1:]):
        a = np.sqrt(6.0 / (i + o))
        parts.append(rng.uniform(-a, a, size=(i + 1) * o))
    return Model(architecture_id(dims), dims, np.concatenate(parts))


def _forward_acts(m: Model, X: Array) -> tuple[Array, list[Array], list[Array]]:
    """Forward pass keeping pre/post activations for backprop: (B, d) inputs
    for one model, (K, B, d) for a stack, one batch per model."""
    pre: list[Array] = []
    post: list[Array] = []
    H = X
    layers = list(_layer_slices(m.layer_dims))
    for li, (ws, bs, i, o) in enumerate(layers):
        W = m.params[..., ws].reshape(*m.params.shape[:-1], i, o)
        b = m.params[..., None, bs]
        A = H @ W + b
        if li < len(layers) - 1:
            pre.append(A)
            H = np.maximum(A, 0.0)
            post.append(H)
        else:
            return A, pre, post
    raise AssertionError("model has no layers")


def forward_batch(m: Model, X: Array) -> Array:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != m.input_dim:
        raise ShapeError(f"expected (B, {m.input_dim}) inputs, got {X.shape}")
    Z, _, _ = _forward_acts(m, X)
    return Z


def batch_loss_and_grad(
    stack: Model,
    X: Array,
    y: Array,
    teachers: TeacherTable | None,
    cfg: KdConfig,
) -> tuple[LossBreakdown, Array, Array]:
    """Each model's batch loss, its gradient w.r.t. the model's flat
    parameters, and its logits.

    Model k of the stack sees the batch X[k] (B, d) with labels y[k] and,
    with teachers, the table rows q[k], h[k], has[k]. Its batch loss is mean
    cross-entropy plus alpha_kd times the mean per-sample distillation loss
    scale * (h - q . log q_s), which is the sample's KL divergence averaged
    over its teachers; a sample with no teacher contributes zero KD. Returns
    (K,) loss arrays, (K, P) gradients and (K, B, C) logits.
    """
    K, B = y.shape
    Z, pre, post = _forward_acts(stack, X)
    log_p = log_softmax_rows(Z)
    picked = (np.arange(K)[:, None], np.arange(B), y)
    ce = -log_p[picked].mean(axis=1)
    kd = np.zeros(K)
    if teachers is not None:
        if teachers.has.shape != (K, B):
            raise ShapeError(f"teacher table has {teachers.has.shape} rows, batch has {(K, B)}")
        if teachers.q.shape[-1] != stack.n_classes:
            raise ShapeError(
                f"teachers have {teachers.q.shape[-1]} classes, model has {stack.n_classes}"
            )
        T = cfg.temperature
        scale = T * T if cfg.t_squared_scaling else 1.0
        kl = teachers.h - (teachers.q * log_softmax_rows(Z / T)).sum(axis=-1)
        kd = scale * np.maximum(kl, 0.0).sum(axis=1) / B
    bd = LossBreakdown(ce=ce, kd=kd, total=ce + cfg.alpha_kd * kd)

    dZ = softmax_rows(Z)
    dZ[picked] -= 1.0
    dZ /= B
    if teachers is not None and cfg.alpha_kd != 0.0:
        has = teachers.has
        dZ[has] += (cfg.alpha_kd / B) * (scale / T) * (softmax_rows(Z[has], T) - teachers.q[has])

    grads = np.empty_like(stack.params)
    layers = list(_layer_slices(stack.layer_dims))
    delta = dZ
    for li in range(len(layers) - 1, -1, -1):
        ws, bs, i, o = layers[li]
        A_prev = post[li - 1] if li > 0 else X
        grads[:, ws] = (A_prev.transpose(0, 2, 1) @ delta).reshape(K, i * o)
        grads[:, bs] = delta.sum(axis=1)
        if li > 0:
            W = stack.params[:, ws].reshape(K, i, o)
            delta = (delta @ W.transpose(0, 2, 1)) * (pre[li - 1] > 0.0)
    return bd, grads, Z


def train_step(
    stack: Model,
    X: Array,
    y: Array,
    teachers: TeacherTable | None,
    cfg: KdConfig,
    lr: float,
) -> tuple[LossBreakdown, Array]:
    """One SGD step of each model of the stack on the batch-mean loss of its
    own batch, in place on `stack.params`; returns (losses, logits) as
    `batch_loss_and_grad` does.

    Overflow to inf or NaN raises no floating-point warning: the client
    phase checks every trained model for non-finite values once per round.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bd, grads, Z = batch_loss_and_grad(stack, X, y, teachers, cfg)
        grads *= lr
        params = stack.params
        params -= grads
    return bd, Z


def aggregate_weights(sizes: Sequence[int]) -> Array:
    """FedAvg weights proportional to client dataset sizes."""
    s = np.asarray(sizes, dtype=np.float64)
    if np.any(s < 0) or s.sum() <= 0:
        raise InvalidInputError("sizes must be nonnegative with positive total")
    return s / s.sum()


def fedavg_aggregate(stack: Model, weights: Array) -> Array:
    """Weighted average of a stack's (K, P) rows, summed in row order."""
    w = np.asarray(weights, dtype=np.float64)
    if stack.params.shape[:1] != w.shape:
        raise ShapeError(f"{len(stack.params)} models but {w.shape[0]} weights")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise InvalidInputError("weights must be nonnegative and sum to 1")
    merged = np.zeros(stack.params.shape[1:])
    for row, wk in zip(stack.params, w):
        merged += wk * row
    return merged
