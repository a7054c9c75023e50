"""Per-sample knowledge cache held by the server.

Stores each training sample's hash, latest uploaded logits, and (only in the
label-using baseline modes) its class label. The cache is single-writer
during the server phase of a round; clients read immutable snapshots.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import InvalidInputError, MissingSampleError, ModeError

Array = np.ndarray


class SampleId(NamedTuple):
    """Globally unique sample identity: owning client plus local index."""

    client_id: int
    local_index: int


@dataclass
class LogitRecord:
    """Latest knowledge for one sample; logits are None until first upload."""

    id: SampleId
    logits: Array | None = None
    label: int | None = None
    round_updated: int | None = None


class KnowledgeCache:
    """Hash + logit store over all registered samples.

    Labels are only stored when store_labels is on (the label-using
    baselines); label reads are counted so tests can assert the
    label-free mode never touches them server-side.
    """

    def __init__(self, n_classes: int, store_labels: bool = False):
        self.n_classes = n_classes
        self.store_labels = store_labels
        self.records: dict[SampleId, LogitRecord] = {}
        self._hashes: dict[SampleId, Array] = {}
        self.label_reads = 0
        self.version = 0
        self._hash_matrix: Array | None = None
        self._hash_ids: list[SampleId] | None = None

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, sid: SampleId) -> bool:
        return sid in self.records

    def register(self, sid: SampleId, h: Array, label: int | None = None) -> None:
        if sid in self.records:
            raise InvalidInputError(f"sample {sid} already registered")
        self.records[sid] = LogitRecord(id=sid, label=label if self.store_labels else None)
        self._hashes[sid] = np.asarray(h, dtype=np.float64)
        self.version += 1
        self._hash_matrix = None
        self._hash_ids = None

    def update_logits(self, sid: SampleId, z: Array, round_index: int) -> None:
        """Overwrite a sample's cached logits with its newest upload."""
        rec = self.records.get(sid)
        if rec is None:
            raise MissingSampleError(f"sample {sid} was never registered")
        rec.logits = np.asarray(z, dtype=np.float64).copy()
        rec.round_updated = round_index
        self.version += 1

    def record(self, sid: SampleId) -> LogitRecord:
        rec = self.records.get(sid)
        if rec is None:
            raise MissingSampleError(f"unknown sample {sid}")
        return rec

    def hash_of(self, sid: SampleId) -> Array:
        h = self._hashes.get(sid)
        if h is None:
            raise MissingSampleError(f"unknown sample {sid}")
        return h

    def get_label(self, sid: SampleId) -> int:
        """Label lookup for baseline aggregation; counted, mode-gated."""
        if not self.store_labels:
            raise ModeError("cache stores no labels in this mode")
        self.label_reads += 1
        rec = self.record(sid)
        if rec.label is None:
            raise ModeError(f"sample {sid} has no label")
        return rec.label

    def records_with_logits(self) -> list[LogitRecord]:
        """Uploaded records in SampleId order (insertion-order independent)."""
        return [self.records[sid] for sid in sorted(self.records) if self.records[sid].logits is not None]

    def hash_table(self) -> tuple[list[SampleId], Array]:
        """All (id, hash) rows as a matrix in SampleId order, cached."""
        if self._hash_matrix is None:
            self._hash_ids = sorted(self._hashes)
            self._hash_matrix = (
                np.stack([self._hashes[sid] for sid in self._hash_ids])
                if self._hash_ids
                else np.empty((0, 0))
            )
        return self._hash_ids, self._hash_matrix
