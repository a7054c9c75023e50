"""Per-sample knowledge cache held by the server.

One columnar table with a row per training sample, in SampleId order, so
each client's rows form one contiguous block: the latest uploaded logits,
the round of that upload, and, only for the methods that read them, class
labels (feddistill, fedcache) and hashes (fedcache). The cache is
single-writer during the server phase of a round; clients read immutable
snapshots.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import InvalidInputError, MissingSampleError, ModeError, ShapeError

Array = np.ndarray


class SampleId(NamedTuple):
    """Globally unique sample identity: owning client plus local index."""

    client_id: int
    local_index: int


class KnowledgeCache:
    """Logits (n, C), upload rounds (n,) (-1 before the first upload) and
    optional labels (n,) and hashes (n, d_hash), row i belonging to ids[i].

    Label reads are counted so tests can assert the label-free mode never
    touches them server-side.
    """

    def __init__(
        self,
        ids: Sequence[SampleId],
        n_classes: int,
        labels: Array | None = None,
        hashes: Array | None = None,
    ):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.ids = tuple(ids[i] for i in order)
        if len(set(self.ids)) != len(self.ids):
            raise InvalidInputError("duplicate sample ids")
        n = len(self.ids)
        self.logits = np.zeros((n, n_classes))
        self.updated_round = np.full(n, -1, dtype=np.int64)
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)[order]
        self.hashes = None if hashes is None else np.asarray(hashes, dtype=np.float64)[order]
        self.label_reads = 0
        clients = [sid.client_id for sid in self.ids]
        self.rows = {
            k: slice(bisect_left(clients, k), bisect_right(clients, k)) for k in sorted(set(clients))
        }

    def __len__(self) -> int:
        return len(self.ids)

    def update_logits(self, client_id: int, Z: Array, round_index: int) -> None:
        """Overwrite one client's rows with its newest upload, (n_k, C) in
        SampleId order."""
        rows = self.rows.get(client_id)
        if rows is None:
            raise MissingSampleError(f"client {client_id} holds no cached samples")
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
