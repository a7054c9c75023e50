"""Small-model zoo: three MLP capacity tiers, backprop, FedAvg.

A `Model` holds one model's flat float64 parameter vector, or a stack of K
models of one architecture as K rows of one (K, P) array, and its layer
sizes, from which everything else about it is computed; nothing here holds
hidden state but its per-layer weight and bias views of `params`, which
each `Model` builds on first use and every later forward and backward pass
reads. Training steps every model of a stack on its own batch at once and
updates the rows in place, so the views and any model whose vector is a
view of a stack row see every step. The tier layout stands in for the
three backbone depths of the reference setting.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .numerics import KdConfig, TeacherTable, tempered_softmax

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

    layer_dims: tuple[int, ...]
    params: Array

    @functools.cached_property
    def layers(self) -> tuple[tuple[Array, Array], ...]:
        """Per layer, the (..., in_dim, out_dim) weight and (..., 1, out_dim)
        bias views of `params`, built once per `Model`; a `dataclasses.replace`
        with new params builds its own."""
        lead = self.params.shape[:-1]
        return tuple(
            (self.params[..., ws].reshape(*lead, i, o), self.params[..., None, bs])
            for ws, bs, i, o in _layer_slices(self.layer_dims)
        )

    @property
    def architecture_id(self) -> str:
        return "mlp-" + "-".join(str(d) for d in self.layer_dims)

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]


@functools.cache
def _layer_slices(layer_dims: tuple[int, ...]) -> tuple[tuple[slice, slice, int, int], ...]:
    """(weight_slice, bias_slice, in_dim, out_dim) per layer, computed once
    per layout."""
    layers = []
    off = 0
    for i, o in zip(layer_dims[:-1], layer_dims[1:]):
        layers.append((slice(off, off + i * o), slice(off + i * o, off + i * o + o), i, o))
        off += (i + 1) * o
    return tuple(layers)


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
    return Model(dims, np.concatenate(parts))


def _forward_acts(m: Model, X: Array) -> tuple[Array, list[Array], list[Array]]:
    """Forward pass keeping pre/post activations for backprop: (B, d) inputs
    for one model, (K, B, d) for a stack, one batch per model."""
    pre: list[Array] = []
    post: list[Array] = []
    H = X
    last = len(m.layers) - 1
    for li, (W, b) in enumerate(m.layers):
        A = H @ W + b
        if li < last:
            pre.append(A)
            H = np.maximum(A, 0.0)
            post.append(H)
        else:
            return A, pre, post
    raise AssertionError("model has no layers")


def forward_batch(m: Model, X: Array) -> Array:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != m.input_dim:
        raise InvalidInputError(f"expected (B, {m.input_dim}) inputs, got {X.shape}")
    Z, _, _ = _forward_acts(m, X)
    return Z


def batch_loss_and_grad(
    stack: Model,
    X: Array,
    y: Array,
    teachers: TeacherTable | None,
    cfg: KdConfig,
) -> tuple[tuple[Array, Array], Array, Array]:
    """Each model's batch loss, its gradient w.r.t. the model's flat
    parameters, and its logits.

    Model k of the stack sees the batch X[k] (B, d) with labels y[k] and,
    with teachers, the table rows q[k], h[k], has[k]. Its batch loss is mean
    cross-entropy plus alpha_kd times the mean per-sample distillation loss
    T^2 (h - q . log q_s), which is the sample's KL divergence averaged
    over its teachers; a sample with no teacher contributes zero KD. Returns
    the (K,) cross-entropy and KD arrays as a pair, (K, P) gradients and
    (K, B, C) logits.

    One `tempered_softmax` of the logits gives the cross-entropy and the
    start of its gradient, and with teachers one more at the temperature
    gives the KL term and the distillation gradient.
    """
    K, B = y.shape
    Z, pre, post = _forward_acts(stack, X)
    P, log_P = tempered_softmax(Z, 1.0)
    picked = (np.arange(K)[:, None], np.arange(B), y)
    # the sum over the batch, then one divide: the bits of `mean`
    ce = -log_P[picked].sum(axis=1) / B
    kd = np.zeros(K)
    if teachers is not None:
        if teachers.has.shape != (K, B):
            raise InvalidInputError(
                f"teacher table has {teachers.has.shape} rows, batch has {(K, B)}"
            )
        if teachers.q.shape[-1] != stack.n_classes:
            raise InvalidInputError(
                f"teachers have {teachers.q.shape[-1]} classes, model has {stack.n_classes}"
            )
        T = cfg.temperature
        scale = T * T
        P_T, log_P_T = tempered_softmax(Z, T)
        kl = teachers.h - (teachers.q * log_P_T).sum(axis=-1)
        kd = scale * np.maximum(kl, 0.0).sum(axis=1) / B

    dZ = P
    dZ[picked] -= 1.0
    dZ /= B
    if teachers is not None and cfg.alpha_kd != 0.0:
        has = teachers.has
        # (T * T) / T, not T: the two differ in the last bit for some T
        dZ[has] += (cfg.alpha_kd / B) * (scale / T) * (P_T[has] - teachers.q[has])

    grads = np.empty_like(stack.params)
    layers = _layer_slices(stack.layer_dims)
    delta = dZ
    for li in range(len(layers) - 1, -1, -1):
        ws, bs, i, o = layers[li]
        A_prev = post[li - 1] if li > 0 else X
        grads[:, ws] = (A_prev.transpose(0, 2, 1) @ delta).reshape(K, i * o)
        grads[:, bs] = delta.sum(axis=1)
        if li > 0:
            W = stack.layers[li][0]
            delta = (delta @ W.transpose(0, 2, 1)) * (pre[li - 1] > 0.0)
    return (ce, kd), grads, Z


def train_step(
    stack: Model,
    X: Array,
    y: Array,
    teachers: TeacherTable | None,
    cfg: KdConfig,
    lr: float,
) -> tuple[tuple[Array, Array], Array]:
    """One SGD step of each model of the stack on the batch-mean loss of its
    own batch, in place on `stack.params`; returns ((ce, kd), logits) as
    `batch_loss_and_grad` does.

    Overflow to inf or NaN raises no floating-point warning: the client
    phase checks every trained model for non-finite values once per round.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        losses, grads, Z = batch_loss_and_grad(stack, X, y, teachers, cfg)
        grads *= lr
        params = stack.params
        params -= grads
    return losses, Z


def fedavg_aggregate(params: Array, sizes: Sequence[int]) -> Array:
    """FedAvg of K models' (K, P) parameter rows, weighted by the clients'
    dataset sizes and summed in row order."""
    s = np.asarray(sizes, dtype=np.float64)
    if params.shape[:1] != s.shape:
        raise InvalidInputError(f"{len(params)} models but {s.shape[0]} sizes")
    if np.any(s < 0) or s.sum() <= 0:
        raise InvalidInputError("sizes must be nonnegative with positive total")
    merged = np.zeros(params.shape[1:])
    for row, wk in zip(params, s / s.sum()):
        merged += wk * row
    return merged
