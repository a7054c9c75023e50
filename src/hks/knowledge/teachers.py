"""Whole-round teacher knowledge: cluster-path granularity plus baselines.

Each builder reads a cache that holds one round's uploads in every row and
returns, for every cache row, padded teacher logits (n, D, C) and their
validity mask (n, D); `numerics.teacher_table` turns them into
distillation targets.
Teachers are means of the cache's raw logits. The hierarchical builder
averages the members of nodes on each sample's cluster path; the two
baselines aggregate by class label (global mean, or R hash-nearest
neighbours) and therefore require the cache's label-storing mode. FedCache's
neighbour rows are queried once per sample, when the federation is built
(`fedcache_neighbors`); `fedcache_teacher` averages their current logits.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from ..errors import ShapeError, StaleHierarchyError
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

    With a path of length L from the sample's singleton up to its root, the
    cut cluster that holds it: bottom reads the first merged cluster, middle
    the ceil((1+L)/2)-th path element, top the root, and all one mean per
    non-singleton path element. With exclude_self a node's mean leaves out
    the sample's own logits, so a node holding only the sample gives no
    teacher.
    """
    n = len(cache)
    if tree.n_leaves != n:
        raise StaleHierarchyError(f"cluster tree has {tree.n_leaves} leaves, the cache {n} rows")
    X = cache.logits
    # One replay of the merges fills each node's logit sum, with its member
    # count in a trailing column, and its parent (-1 for a root). One entry
    # past the last node, parent[-1] keeps the path walk's -1 pad at -1.
    top = n + len(tree.merges)
    sums = np.empty((top, X.shape[1] + 1))
    sums[:n, :-1] = X
    sums[:n, -1] = 1.0
    parent = np.full(top + 1, -1, dtype=np.int64)
    for node, merge in enumerate(tree.merges, start=n):
        sums[node] = sums[merge.left] + sums[merge.right]
        parent[merge.left] = parent[merge.right] = node
    # paths[i] is leaf i's node chain up to its root, padded with -1.
    steps = [np.arange(n)]
    while (steps[-1] >= 0).any():
        steps.append(parent[steps[-1]])
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
    size = sums[nodes, -1] - int(exclude_self)
    mask = (nodes >= 0) & (size > 0)
    logits = sums[nodes, :-1]
    if exclude_self:
        logits -= X[:, None, :]
    logits /= np.maximum(size, 1)[..., None]
    logits[~mask] = 0.0
    return logits, mask


def feddistill_teacher(cache: KnowledgeCache) -> tuple[Array, Array]:
    """Per sample, the mean cached logits of its class held by other clients."""
    labels = cache.read_labels()
    out = np.zeros((len(cache), 1, cache.logits.shape[1]))
    has = np.zeros((len(cache), 1), dtype=bool)
    for k, rows in enumerate(cache.rows):
        foreign = cache.owner != k
        for y in np.unique(labels[rows]):
            pool = foreign & (labels == y)
            if pool.any():
                mine = labels[rows] == y
                out[rows][mine, 0] = cache.logits[pool].mean(axis=0)
                has[rows][mine, 0] = True
    return out, has


def fedcache_neighbors(cache: KnowledgeCache, index: HnswIndex, hashes: Array, R: int) -> Array:
    """Each row's R hash-nearest same-class rows of other clients, nearest
    first, as an (n, R) table padded with -1. Row i of `hashes` and node i
    of the index must be cache row i."""
    if len(hashes) != len(cache):
        raise ShapeError(f"hashes have {len(hashes)} rows, the cache {len(cache)}")
    labels = cache.read_labels()
    owner = cache.owner.tolist()
    out = np.full((len(cache), R), -1, dtype=np.int64)
    for row in range(len(cache)):

        def same_class_foreign(other: int) -> bool:
            if owner[other] == owner[row]:
                return False
            cache.label_reads += 1
            return labels[other] == labels[row]

        found = index.query(hashes[row], R, same_class_foreign)
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
