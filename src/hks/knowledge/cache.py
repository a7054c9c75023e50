"""Per-sample knowledge cache held by the server.

One columnar table with a row per training sample, laid out client by
client and, within a client, by local index, so client k's rows form block
k: the latest uploaded logits, the round of that upload, and, only for the
methods that read them, class labels (feddistill, fedcache) and hashes
(fedcache). The row is the server's only sample key: the cluster tree's
leaves and the hash index's nodes are cache rows. The round's barrier is
the only writer; the server phase and the clients only read.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import InvalidInputError, MissingSampleError, ModeError, ShapeError

Array = np.ndarray


def _column(values, dtype, n: int, name: str) -> Array:
    col = np.asarray(values, dtype=dtype)
    if col.shape[:1] != (n,):
        raise ShapeError(f"{name} must have {n} rows, got shape {col.shape}")
    return col


class KnowledgeCache:
    """Logits (n, C), upload rounds (n,) (-1 before the first upload) and
    optional labels (n,) and hashes (n, d_hash) for clients holding
    `sizes[k]` samples each. `rows[k]` is client k's row slice and
    `owner[i]` the client of row i.

    Label reads are counted so tests can assert the label-free mode never
    touches them server-side.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        n_classes: int,
        labels: Array | None = None,
        hashes: Array | None = None,
    ):
        if any(size < 0 for size in sizes):
            raise InvalidInputError(f"client sizes must be >= 0, got {list(sizes)}")
        bounds = np.cumsum([0, *sizes])
        self.rows = [slice(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self.owner = np.repeat(np.arange(len(sizes)), sizes)
        n = len(self.owner)
        self.logits = np.zeros((n, n_classes))
        self.updated_round = np.full(n, -1, dtype=np.int64)
        self.labels = None if labels is None else _column(labels, np.int64, n, "labels")
        self.hashes = None if hashes is None else _column(hashes, np.float64, n, "hashes")
        self.label_reads = 0

    def __len__(self) -> int:
        return len(self.owner)

    def update_logits(self, client_id: int, Z: Array, round_index: int) -> None:
        """Overwrite one client's rows with its newest upload, (n_k, C) in
        local index order."""
        if not 0 <= client_id < len(self.rows):
            raise MissingSampleError(f"the cache holds no client {client_id}")
        rows = self.rows[client_id]
        Z = np.asarray(Z, dtype=np.float64)
        if Z.shape != self.logits[rows].shape:
            raise ShapeError(f"client {client_id} uploaded {Z.shape}, expected {self.logits[rows].shape}")
        self.logits[rows] = Z
        self.updated_round[rows] = round_index

    def read_labels(self) -> Array:
        """Every row's label for the label-using baselines; counted, mode-gated."""
        if self.labels is None:
            raise ModeError("cache stores no labels in this mode")
        self.label_reads += len(self.labels)
        return self.labels
