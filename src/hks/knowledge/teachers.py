"""Whole-round teacher knowledge: cluster-path granularity plus baselines.

Each builder returns, for every sample in SampleId order, padded teacher
logits (n, D, C) and their validity mask (n, D), split into one block per
client; `numerics.teacher_table` turns a block into distillation targets.
Teachers are means of the cache's raw logits. The hierarchical builder
averages the members of nodes on each sample's cluster path; the two
baselines aggregate by class label (global mean, or R hash-nearest
neighbours) and therefore require the cache's label-storing mode. FedCache's
neighbour lists are queried once per sample (`fedcache_neighbors`);
`fedcache_teacher` averages their current logits.
"""
from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from ..errors import StaleHierarchyError
from .cache import KnowledgeCache, SampleId
from .hierarchy import ClusterTree
from .hnsw import HnswIndex

Array = np.ndarray
# One (logits (n, D, C), mask (n, D)) block per client, in client-id order.
Blocks = list[tuple[Array, Array]]


class Granularity(str, Enum):
    TOP = "top"
    MIDDLE = "middle"
    BOTTOM = "bottom"
    ALL = "all"


def _client_rows(clients: Array) -> list[slice]:
    """Row range of each client in rows sorted by client id."""
    starts = np.flatnonzero(np.r_[True, clients[1:] != clients[:-1]])
    return [slice(a, b) for a, b in zip(starts, np.r_[starts[1:], len(clients)])]


def fetch_teacher(
    cache: KnowledgeCache,
    tree: ClusterTree | None,
    granularity: Granularity,
    exclude_self: bool = True,
) -> Blocks:
    """Teacher logits of every cached sample at the chosen granularity.

    With a path of length L (singleton first, cut cluster last):
    bottom reads the first merged cluster, middle the ceil((1+L)/2)-th path
    element, top the cut cluster, and all one mean per non-singleton path
    element. With exclude_self a node's mean leaves out the sample's own
    logits, so a node holding only the sample gives no teacher.
    """
    if tree is None:
        raise StaleHierarchyError("no cluster hierarchy has been built yet")
    if tuple(sorted(cache.records)) != tree.leaf_ids:
        raise StaleHierarchyError("cluster tree does not cover exactly the cached samples")
    n = tree.n_leaves
    X = np.stack([cache.records[sid].logits for sid in tree.leaf_ids])
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
    # Filled per client: one (n, D, C) array for every sample would stay
    # resident through the next hierarchy build and raise the peak memory.
    blocks = []
    for rows in _client_rows(np.array([sid.client_id for sid in tree.leaf_ids])):
        logits = sums[nodes[rows]]
        if exclude_self:
            logits -= X[rows, None, :]
        logits /= np.maximum(size[rows], 1)[..., None]
        logits[~mask[rows]] = 0.0
        blocks.append((logits, mask[rows]))
    return blocks


def feddistill_teacher(cache: KnowledgeCache) -> Blocks:
    """Per sample, the mean cached logits of its class held by other clients."""
    sids = sorted(cache.records)
    clients = np.array([sid.client_id for sid in sids])
    labels = np.array([cache.get_label(sid) for sid in sids])
    cached = [cache.records[sid].logits for sid in sids]
    valid = np.array([z is not None for z in cached], dtype=bool)
    logits = np.stack([np.zeros(cache.n_classes) if z is None else z for z in cached])
    out = np.zeros((len(labels), 1, logits.shape[1]))
    has = np.zeros((len(labels), 1), dtype=bool)
    for k, y in sorted(set(zip(clients.tolist(), labels.tolist()))):
        foreign = valid & (labels == y) & (clients != k)
        if foreign.any():
            mine = (clients == k) & (labels == y)
            out[mine, 0] = logits[foreign].mean(axis=0)
            has[mine, 0] = True
    return [(out[rows], has[rows]) for rows in _client_rows(clients)]


def fedcache_neighbors(
    cache: KnowledgeCache, index: HnswIndex, sid: SampleId, R: int
) -> list[SampleId]:
    """The R hash-nearest same-class samples of other clients that hold logits."""
    y = cache.get_label(sid)
    h = cache.hash_of(sid)
    me = sid.client_id

    def same_class_foreign(other: SampleId) -> bool:
        if other.client_id == me:
            return False
        rec = cache.record(other)
        if rec.logits is None or rec.label is None:
            return False
        cache.label_reads += 1
        return rec.label == y

    return index.query(h, R, same_class_foreign)


def fedcache_teacher(
    cache: KnowledgeCache, neighbors: dict[SampleId, Sequence[SampleId]]
) -> Blocks:
    """Mean current logits of each sample's FedCache neighbours.

    Rows follow the samples of `neighbors` in SampleId order; a sample with
    no neighbour has no teacher.
    """
    sids = sorted(neighbors)
    out = np.zeros((len(sids), 1, cache.n_classes))
    for row, sid in enumerate(sids):
        if neighbors[sid]:
            out[row, 0] = np.stack([cache.record(nb).logits for nb in neighbors[sid]]).mean(axis=0)
    has = np.array([bool(neighbors[sid]) for sid in sids], dtype=bool)[:, None]
    clients = np.array([sid.client_id for sid in sids])
    return [(out[rows], has[rows]) for rows in _client_rows(clients)]
