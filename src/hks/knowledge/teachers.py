"""Teacher knowledge selection: cluster-path granularity plus baselines.

The hierarchical fetch walks a sample's cluster path and averages member
logits at the requested level; the two baselines aggregate by class label
(global mean, or R hash-nearest neighbors) and therefore require the cache's
label-storing mode. FedCache's neighbour lists are queried once per sample
(`fedcache_neighbors`); `fedcache_teacher` averages their current logits.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from ..errors import MissingSampleError, StaleHierarchyError
from .cache import KnowledgeCache, SampleId
from .hierarchy import ClusterTree
from .hnsw import HnswIndex

Array = np.ndarray


class Granularity(str, Enum):
    TOP = "top"
    MIDDLE = "middle"
    BOTTOM = "bottom"
    ALL = "all"


def _aggregate(tree: ClusterTree, node: int, target_leaf: int, exclude_self: bool) -> Array | None:
    """Mean of a cluster's member vectors, optionally without the target's own."""
    size = int(tree.node_size[node])
    total = tree.node_vector_sum[node]
    if exclude_self and size > 1:
        total = total - tree.leaf_vectors[target_leaf]
        size -= 1
    if size == 0:
        return None
    return total / size

def fetch_teacher(
    cache: KnowledgeCache,
    tree: ClusterTree | None,
    sid: SampleId,
    granularity: Granularity,
    exclude_self: bool = True,
) -> list[Array]:
    """Teacher logits for one sample at the chosen granularity.

    With a path of length L (singleton first, cut cluster last):
    bottom reads the first merged cluster, middle the ceil((1+L)/2)-th path
    element, top the cut cluster, and all yields one aggregate per non-
    singleton path element. An empty result means distillation is
    unavailable for this sample and contributes zero loss.
    """
    if sid not in cache:
        raise MissingSampleError(f"unknown sample {sid}")
    if tree is None:
        raise StaleHierarchyError("no cluster hierarchy has been built yet")
    leaf = tree.leaf_index.get(sid)
    if leaf is None:
        raise StaleHierarchyError(f"hierarchy predates sample {sid}")
    path = tree.path_nodes(sid)
    length = len(path)
    granularity = Granularity(granularity)
    if granularity is Granularity.BOTTOM:
        nodes = [path[1]] if length >= 2 else []
    elif granularity is Granularity.MIDDLE:
        nodes = [path[math.ceil((1 + length) / 2) - 1]] if length >= 2 else []
    elif granularity is Granularity.TOP:
        nodes = [path[-1]]
    else:
        nodes = path[1:]
    out = []
    for node in nodes:
        agg = _aggregate(tree, node, leaf, exclude_self)
        if agg is not None:
            out.append(agg)
    return out


def feddistill_teacher(cache: KnowledgeCache, y: int, requesting_client: int) -> Array | None:
    """Mean cached logits of class y owned by any other client, or None."""
    clients, labels, logits, valid = cache.label_table()
    mask = valid & (labels == y) & (clients != requesting_client)
    if not mask.any():
        return None
    return logits[mask].mean(axis=0)


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


def fedcache_teacher(cache: KnowledgeCache, neighbor_ids: Sequence[SampleId]) -> Array | None:
    """Mean current logits of a sample's FedCache neighbours, or None."""
    if not neighbor_ids:
        return None
    return np.stack([cache.record(nb).logits for nb in neighbor_ids]).mean(axis=0)
