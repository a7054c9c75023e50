"""Dataset ingestion and non-IID partitioning.

Covers the IDX image/label format (gzip-transparent), a synthetic Gaussian
blob generator for desk-scale runs, per-class Dirichlet partitioning across
clients, and stratified local train/test splits. Datasets are immutable after
construction.
"""
from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ConsistencyError,
    EmptyDatasetError,
    EmptyShardError,
    FormatError,
    InfeasiblePartitionError,
    InvalidInputError,
    TruncatedFileError,
)

Array = np.ndarray

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# A header may declare more bytes than the file holds, or than memory holds.
_READ_CHUNK = 1 << 24


@dataclass(frozen=True)
class Dataset:
    """Flat feature matrix plus integer labels for a C-class problem."""

    features: Array  # (n, input_dim) float64
    labels: Array  # (n,) int64
    n_classes: int

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise InvalidInputError("features must be (n, d) and labels (n,)")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ConsistencyError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )
        if not np.all(np.isfinite(self.features)):
            raise InvalidInputError("features contain non-finite values")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise InvalidInputError(f"labels must lie in [0, {self.n_classes})")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.n_classes)


def _open_maybe_gzip(path: str | Path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(f, n: int, what: str) -> bytearray:
    """n bytes, read in bounded chunks up to the end of the file."""
    buf = bytearray()
    try:
        while len(buf) < n and (chunk := f.read(min(n - len(buf), _READ_CHUNK))):
            buf += chunk
    except EOFError:  # a gzip stream cut short
        raise TruncatedFileError(f"{what}: compressed file ends before its end marker") from None
    except (gzip.BadGzipFile, zlib.error) as exc:
        raise FormatError(f"{what}: not a valid gzip stream ({exc})") from None
    if len(buf) != n:
        raise TruncatedFileError(f"{what}: expected {n} bytes, got {len(buf)}")
    return buf


def _read_u32(f, what: str) -> int:
    return struct.unpack(">I", _read_exact(f, 4, what))[0]


def load_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Parse a big-endian IDX image/label pair into a flat [0,1] dataset."""
    with _open_maybe_gzip(images_path) as f:
        magic = _read_u32(f, "image magic")
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"image file magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
        n = _read_u32(f, "image count")
        rows = _read_u32(f, "row count")
        cols = _read_u32(f, "col count")
        pixels = np.frombuffer(_read_exact(f, n * rows * cols, "pixel data"), dtype=np.uint8)
    with _open_maybe_gzip(labels_path) as f:
        magic = _read_u32(f, "label magic")
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"label file magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
        n_labels = _read_u32(f, "label count")
        labels = np.frombuffer(_read_exact(f, n_labels, "label data"), dtype=np.uint8)
    if n != n_labels:
        raise ConsistencyError(f"{n} images but {n_labels} labels")
    if n == 0:
        raise EmptyDatasetError(f"{images_path} holds no images")
    features = pixels.astype(np.float64).reshape(n, rows * cols) / 255.0
    labels = labels.astype(np.int64)
    return Dataset(features, labels, int(labels.max()) + 1)


def synth_blobs(n_classes: int, per_class: int, input_dim: int, spread: float, seed: int) -> Dataset:
    """Gaussian blobs around seeded unit-direction centers of norm 4, class
    by class. The centers are drawn first, then every sample's noise in one
    draw."""
    if n_classes < 1 or per_class < 1 or input_dim < 1 or spread < 0:
        raise InvalidInputError("n_classes, per_class, input_dim must be >= 1 and spread >= 0")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_classes, input_dim))
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    centers = 4.0 * centers / norms
    noise = rng.standard_normal((n_classes * per_class, input_dim))
    # a spread near the float64 limit overflows to inf, which Dataset rejects
    with np.errstate(over="ignore"):
        feats = np.repeat(centers, per_class, axis=0) + spread * noise
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    return Dataset(feats, labels, n_classes)


def synth_train_and_test(
    n_classes: int,
    per_class: int,
    input_dim: int,
    spread: float,
    seed: int,
    test_per_class: int | None = None,
) -> tuple[Dataset, Dataset]:
    """Train set plus a balanced global test set drawn from the same blobs.

    One generator call produces per_class + test_per_class samples per class;
    the leading per_class of each class become training data, the tail the
    evenly distributed global test set.
    """
    if test_per_class is None:
        test_per_class = max(1, -(-per_class // 4))
    if test_per_class < 0:
        raise InvalidInputError(f"test_per_class must be >= 0, got {test_per_class}")
    full = synth_blobs(n_classes, per_class + test_per_class, input_dim, spread, seed)
    X = full.features.reshape(n_classes, per_class + test_per_class, input_dim)
    y = full.labels.reshape(n_classes, per_class + test_per_class)
    return (
        Dataset(X[:, :per_class].reshape(-1, input_dim), y[:, :per_class].ravel(), n_classes),
        Dataset(X[:, per_class:].reshape(-1, input_dim), y[:, per_class:].ravel(), n_classes),
    )


def dirichlet_partition(
    ds: Dataset, n_clients: int, alpha_dir: float, seed: int, min_per_client: int = 0
) -> list[Array]:
    """Per-class Dirichlet split of sample indices across n_clients clients.

    For each class, client proportions are drawn from a symmetric
    Dirichlet(alpha_dir) by the generator seeded with `seed`, and the class's
    shuffled indices are cut at the cumulative proportions. A post-pass moves
    samples from the largest shard, round-robin over deficient clients, until
    every client holds min_per_client samples. The settings are checked here
    for library callers; a `FederationConfig` has checked its own.
    """
    if n_clients < 1:
        raise InvalidInputError("n_clients must be >= 1")
    if not 0 < alpha_dir < math.inf:
        raise InvalidInputError(f"alpha_dir must be finite and > 0, got {alpha_dir}")
    if min_per_client < 0:
        raise InvalidInputError("min_per_client must be >= 0")
    if len(ds) == 0:
        raise InvalidInputError("cannot partition an empty dataset")
    if min_per_client * n_clients > len(ds):
        raise InfeasiblePartitionError(
            f"min_per_client={min_per_client} x {n_clients} clients exceeds {len(ds)} samples"
        )
    rng = np.random.default_rng(seed)
    parts: list[list[int]] = [[] for _ in range(n_clients)]
    for c in range(ds.n_classes):
        idx_c = np.flatnonzero(ds.labels == c)
        if idx_c.size == 0:
            continue
        rng.shuffle(idx_c)
        p = rng.dirichlet(np.full(n_clients, alpha_dir))
        cuts = (np.cumsum(p)[:-1] * idx_c.size).astype(np.int64)
        for k, piece in enumerate(np.split(idx_c, cuts)):
            parts[k].extend(int(i) for i in piece)

    while True:
        deficient = [k for k in range(n_clients) if len(parts[k]) < min_per_client]
        if not deficient:
            break
        for k in deficient:
            donor = max(range(n_clients), key=lambda j: (len(parts[j]), -j))
            parts[k].append(parts[donor].pop())
    return [np.asarray(p, dtype=np.int64) for p in parts]


@dataclass(frozen=True)
class ClientShard:
    """One client's training data and held-out local test split."""

    train: Dataset
    local_test: Dataset


def split_local_test(
    indices: Sequence[int],
    ds: Dataset,
    test_fraction: float,
    seed: int,
    client_id: int = 0,
) -> ClientShard:
    """Seeded stratified split of a shard into local train and test parts.

    Each class, in ascending order, shuffles its shard samples and gives
    round(n_c * fraction) of them to test, at least one and at most n_c - 1,
    so a class with one shard sample stays entirely in train.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise EmptyShardError(f"client {client_id} shard is empty")
    if not 0 < test_fraction < 1:
        raise InvalidInputError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    labels = ds.labels[idx]
    for c in np.flatnonzero(np.bincount(labels)):
        members = idx[labels == c]
        rng.shuffle(members)
        n_test = int(np.floor(members.size * test_fraction + 0.5))
        n_test = min(max(n_test, 1), members.size - 1)
        test_idx.extend(members[:n_test].tolist())
        train_idx.extend(members[n_test:].tolist())
    train_idx.sort()
    test_idx.sort()
    return ClientShard(ds.subset(train_idx), ds.subset(test_idx))


def epoch_order(n_train: int, client: int, seed: int, epoch: int) -> Array:
    """Client `client`'s `n_train` train indices shuffled for one epoch, keyed
    by (seed, client, epoch); batch j is entries j*B:(j+1)*B for batch size B."""
    return np.random.default_rng([seed, client, epoch]).permutation(n_train)


def stratified_subsample(ds: Dataset, n_samples: int, seed: int) -> Dataset:
    """Seeded class-proportional subsample of exactly n_samples rows, by
    largest remainder after one row per class present, if they all fit."""
    if n_samples >= len(ds):
        return ds
    counts = np.bincount(ds.labels, minlength=ds.n_classes)
    first = (counts > 0) & (n_samples >= np.count_nonzero(counts))
    quota = (counts - first) * (n_samples - first.sum()) / (len(ds) - first.sum())
    per_class = np.floor(quota).astype(np.int64)
    short = n_samples - first.sum() - per_class.sum()
    per_class[np.argsort(per_class - quota, kind="stable")[:short]] += 1
    per_class += first
    rng = np.random.default_rng([seed, 9151])
    take: list[int] = []
    for c in range(ds.n_classes):
        members = np.flatnonzero(ds.labels == c)
        rng.shuffle(members)
        take.extend(members[: per_class[c]].tolist())
    take.sort()
    return ds.subset(take)
