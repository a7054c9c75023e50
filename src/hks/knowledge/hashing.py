"""Feature hashing: a fixed seeded random projection, unit-normalized.

One projection matrix serves the whole experiment, so equal inputs always
hash identically.
"""
from __future__ import annotations

import numpy as np

from ..errors import DegenerateInputError, InvalidInputError

Array = np.ndarray


class RandomProjectionEncoder:
    """d_hash x input_dim seeded Gaussian projection with L2 normalization."""

    def __init__(self, input_dim: int, d_hash: int, seed: int):
        if input_dim < 1 or d_hash < 1:
            raise InvalidInputError("input_dim and d_hash must be >= 1")
        rng = np.random.default_rng([seed, 7477])
        self.projection = rng.standard_normal((d_hash, input_dim))

    def encode_rows(self, X: Array) -> Array:
        """Unit-normalized projection of each row of X; raises on a zero or non-finite norm."""
        with np.errstate(over="ignore", invalid="ignore"):
            H = X @ self.projection.T
            norms = np.linalg.norm(H, axis=1, keepdims=True)
        if not np.isfinite(norms).all():
            raise InvalidInputError("features are too large to hash: projection norms overflow")
        if np.any(norms == 0.0):
            raise DegenerateInputError("projection collapsed an input to zero")
        return H / norms

