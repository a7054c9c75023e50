"""Per-sample knowledge cache held by the server.

One columnar table with a row per training sample, laid out client by
client and, within a client, by local index, so client k's rows form block
k: the latest uploaded logits and, only for the methods that read them
(feddistill, fedcache), class labels. The row is the server's only sample
key: the cluster tree's leaves and fedcache's neighbour entries are cache
rows.
Every client uploads in every round of a logit method, so the round's
barrier writes all rows at once and the cache holds either no logits (before
the first upload, and always for the methods that upload none) or the last
round's; the server phase and the clients only read.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import InvalidInputError

Array = np.ndarray


class KnowledgeCache:
    """The last upload's logits (n, C), None before the first, and optional
    labels (n,) for clients holding `sizes[k]` samples each. `rows[k]` is
    client k's row slice and `owner[i]` the client of row i.

    Label reads are counted so tests can assert the label-free mode never
    touches them server-side.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        n_classes: int,
        labels: Array | None = None,
    ):
        if any(size < 0 for size in sizes):
            raise InvalidInputError(f"client sizes must be >= 0, got {list(sizes)}")
        bounds = np.cumsum([0, *sizes])
        self.rows = [slice(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self.owner = np.repeat(np.arange(len(sizes)), sizes)
        n = len(self.owner)
        self.n_classes = n_classes
        self.logits: Array | None = None
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape[:1] != (n,):
                raise InvalidInputError(f"labels must have {n} rows, got shape {labels.shape}")
        self.labels = labels
        self.label_reads = 0

    def __len__(self) -> int:
        return len(self.owner)

    def update_logits(self, Z: Array) -> None:
        """Replace every row with a copy of one round's uploads, (n, C) in
        row order."""
        Z = np.array(Z, dtype=np.float64)
        if Z.shape != (len(self), self.n_classes):
            raise InvalidInputError(f"uploaded {Z.shape}, expected {(len(self), self.n_classes)}")
        self.logits = Z

    def read_labels(self) -> Array:
        """Every row's label for the label-using baselines; counted, mode-gated."""
        if self.labels is None:
            raise InvalidInputError("cache stores no labels in this mode")
        self.label_reads += len(self.labels)
        return self.labels
