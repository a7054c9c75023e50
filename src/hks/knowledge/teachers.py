"""Whole-round teacher knowledge: cluster-path granularity plus baselines.

Each builder returns, for every cache row, padded teacher logits (n, D, C)
and their validity mask (n, D); `numerics.teacher_table` turns them into
distillation targets.
Teachers are means of the cache's raw logits. The hierarchical builder
averages the members of nodes on each sample's cluster path; the two
baselines aggregate by class label (global mean, or R hash-nearest
neighbours) and therefore require the cache's label-storing mode. FedCache's
neighbour rows are queried once per sample (`fedcache_neighbors`);
`fedcache_teacher` averages their current logits.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from ..errors import StaleHierarchyError
from .cache import KnowledgeCache
from .hierarchy import ClusterTree
from .hnsw import HnswIndex

Array = np.ndarray


class Granularity(str, Enum):
    TOP = "top"
    MIDDLE = "middle"
    BOTTOM = "bottom"
    ALL = "all"


def fetch_teacher(
    cache: KnowledgeCache,
    tree: ClusterTree,
    granularity: Granularity,
    exclude_self: bool = True,
) -> tuple[Array, Array]:
    """Teacher logits of every cached sample at the chosen granularity.

    With a path of length L (singleton first, cut cluster last):
    bottom reads the first merged cluster, middle the ceil((1+L)/2)-th path
    element, top the cut cluster, and all one mean per non-singleton path
    element. With exclude_self a node's mean leaves out the sample's own
    logits, so a node holding only the sample gives no teacher.
    """
    n = len(cache)
    if tree.n_leaves != n:
        raise StaleHierarchyError(f"cluster tree has {tree.n_leaves} leaves, the cache {n} rows")
    X = cache.logits
    # Node sums replay the merges below the cut over the raw logits.
    top = n + (n - tree.cut_size)
    sums = np.empty((top, X.shape[1]))
    sums[:n] = X
    for t, merge in enumerate(tree.merges[: top - n]):
        sums[n + t] = sums[merge.left] + sums[merge.right]
    # paths[i] is leaf i's node chain up to its cut cluster, padded with -1.
    steps = [np.arange(n)]
    while (steps[-1] >= 0).any():
        up = tree.parent[steps[-1]]  # -1 reads the root, whose parent is -1
        steps.append(np.where(up < top, up, -1))
    paths = np.stack(steps[:-1], axis=1)
    length = (paths >= 0).sum(axis=1)
    granularity = Granularity(granularity)
    if granularity is Granularity.ALL:
        nodes = paths[:, 1:]
    elif granularity is Granularity.BOTTOM:
        nodes = paths[:, 1:2]
    elif granularity is Granularity.MIDDLE:
        nodes = np.where(length >= 2, paths[np.arange(n), length // 2], -1)[:, None]
    else:
        nodes = paths[np.arange(n), length - 1][:, None]
    size = tree.node_size[nodes] - int(exclude_self)
    mask = (nodes >= 0) & (size > 0)
    logits = sums[nodes]
    if exclude_self:
        logits -= X[:, None, :]
    logits /= np.maximum(size, 1)[..., None]
    logits[~mask] = 0.0
    return logits, mask


def feddistill_teacher(cache: KnowledgeCache) -> tuple[Array, Array]:
    """Per sample, the mean cached logits of its class held by other clients."""
    labels = cache.read_labels()
    valid = cache.updated_round >= 0
    out = np.zeros((len(cache), 1, cache.logits.shape[1]))
    has = np.zeros((len(cache), 1), dtype=bool)
    for rows in cache.rows:
        foreign = valid.copy()
        foreign[rows] = False
        for y in np.unique(labels[rows]):
            pool = foreign & (labels == y)
            if pool.any():
                mine = labels[rows] == y
                out[rows][mine, 0] = cache.logits[pool].mean(axis=0)
                has[rows][mine, 0] = True
    return out, has


def fedcache_neighbors(cache: KnowledgeCache, index: HnswIndex, R: int) -> Array:
    """Each row's R hash-nearest same-class rows of other clients that hold
    logits, nearest first, as an (n, R) table padded with -1. Node i of
    the index must be cache row i."""
    labels = cache.read_labels()
    owner = cache.owner.tolist()
    out = np.full((len(cache), R), -1, dtype=np.int64)
    for row in range(len(cache)):

        def same_class_foreign(other: int) -> bool:
            if owner[other] == owner[row] or cache.updated_round[other] < 0:
                return False
            cache.label_reads += 1
            return labels[other] == labels[row]

        found = index.query(cache.hashes[row], R, same_class_foreign)
        out[row, : len(found)] = found
    return out


def fedcache_teacher(cache: KnowledgeCache, neighbors: Array) -> tuple[Array, Array]:
    """Mean current logits of each row's FedCache neighbour rows; a row with
    no neighbour has no teacher."""
    valid = neighbors >= 0
    count = valid.sum(axis=1)
    gathered = np.where(valid[..., None], cache.logits[neighbors], 0.0)
    out = (gathered.sum(axis=1) / np.maximum(count, 1)[:, None])[:, None, :]
    return out, (count > 0)[:, None]
