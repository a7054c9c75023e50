"""Whole-round teacher knowledge: cluster-path granularity plus baselines.

Each builder reads a cache that holds one round's uploads in every row and
returns the round's `TeacherTable` over every cache row. It forms one (n, C)
level of teacher logits at a time and softens it with
`numerics.teacher_table`, so no builder holds more than one level.
Teachers are means of the cache's raw logits. The hierarchical builder
averages the members of nodes on each sample's cluster path, one path step
per level, and softens a level only on the rows whose path reaches it; the
two baselines aggregate by class label (global mean, or R
hash-nearest neighbours), one level each, and therefore require the cache's
label-storing mode. FedCache's neighbour table is searched exactly, once,
when the federation is built (`fedcache_neighbors`); `fedcache_teacher`
averages the neighbours' current logits.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from ..errors import InvalidInputError
from ..numerics import TeacherTable, teacher_table
from .cache import KnowledgeCache
from .hierarchy import ClusterTree

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
    temperature: float,
    exclude_self: bool = True,
) -> TeacherTable:
    """Teacher table of every cached sample at the chosen granularity.

    With a path of length L from the sample's singleton up to its root, the
    cut cluster that holds it: bottom reads the first merged cluster, middle
    the ceil((1+L)/2)-th path element, top the root, and all one mean per
    non-singleton path element, softened one path step at a time over the
    rows that have a teacher there. With
    exclude_self a node's mean leaves out the sample's own logits, so a node
    holding only the sample gives no teacher.
    """
    n = len(cache)
    if tree.n_leaves != n:
        raise InvalidInputError(f"cluster tree has {tree.n_leaves} leaves, the cache {n} rows")
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
    has = (nodes >= 0) & (size > 0)
    q, h = np.zeros_like(X), np.zeros(nodes.shape)
    for d in range(nodes.shape[1]):
        rows = np.flatnonzero(has[:, d])
        mean = sums[nodes[rows, d], :-1]
        if exclude_self:
            mean -= X[rows]
        step = teacher_table(mean / size[rows, d, None], has[rows, d], temperature)
        q[rows] += step.q
        h[rows, d] = step.h
    denom = np.maximum(has.sum(axis=1), 1)
    return TeacherTable(q / denom[:, None], h.sum(axis=1) / denom, has.any(axis=1))


def feddistill_teacher(cache: KnowledgeCache, temperature: float) -> TeacherTable:
    """Per sample, the mean cached logits of its class held by other clients."""
    labels = cache.read_labels()
    out = np.zeros_like(cache.logits)
    has = np.zeros(len(cache), dtype=bool)
    for k, rows in enumerate(cache.rows):
        foreign = cache.owner != k
        for y in np.flatnonzero(np.bincount(labels[rows])):
            pool = foreign & (labels == y)
            if pool.any():
                mine = labels[rows] == y
                out[rows][mine] = cache.logits[pool].mean(axis=0)
                has[rows][mine] = True
    return teacher_table(out, has, temperature)


# Rows per block of the neighbour search are chosen so that one block's
# (rows, class size, d_hash) hash differences hold about this many float64s
# (128 KB), or one row's when a class is larger.
_BLOCK_ELEMENTS = 1 << 14


def fedcache_neighbors(cache: KnowledgeCache, hashes: Array, R: int) -> Array:
    """Each row's R hash-nearest same-class rows of other clients, nearest
    first, as an (n, min(R, m)) table padded with -1, m the largest class
    count; equal distances go to the lower row. Row i of `hashes` is cache row i.

    The search is exact: per class and in blocks of rows, the squared hash
    distances to every row of the class, with the row's own client masked.
    """
    hashes = np.asarray(hashes, dtype=np.float64)
    if hashes.ndim != 2 or len(hashes) != len(cache):
        raise InvalidInputError(
            f"hashes must have {len(cache)} rows of d_hash, got shape {hashes.shape}"
        )
    if not np.isfinite(hashes).all():
        raise InvalidInputError("hashes must be finite")
    if R < 1:
        raise InvalidInputError(f"R must be >= 1, got {R}")
    labels = cache.read_labels()
    counts = np.bincount(labels)
    # a row has no more neighbours than its class holds, however large R is
    out = np.full((len(cache), min(R, counts.max(initial=0))), -1, dtype=np.int64)
    for y in np.flatnonzero(counts):
        members = np.flatnonzero(labels == y)
        H, owner = hashes[members], cache.owner[members]
        k = min(out.shape[1], len(members))
        step = max(1, _BLOCK_ELEMENTS // max(H.size, 1))
        for lo in range(0, len(members), step):
            rows = members[lo : lo + step]
            diff = (H[None] - hashes[rows][:, None]).reshape(-1, H.shape[1])
            d2 = np.einsum("ij,ij->i", diff, diff).reshape(len(rows), -1)
            own = owner == cache.owner[rows][:, None]
            d2[own] = np.inf
            # every foreign row within a row's k-th smallest distance, then
            # the first k of them by (row, distance, column)
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
            r, c = np.nonzero((d2 <= kth) & ~own)
            order = np.lexsort((c, d2[r, c], r))
            r, c = r[order], c[order]
            rank = np.arange(len(r)) - np.searchsorted(r, r)
            first = rank < k
            out[rows[r[first]], rank[first]] = members[c[first]]
    return out


def fedcache_teacher(cache: KnowledgeCache, neighbors: Array, temperature: float) -> TeacherTable:
    """Mean current logits of each row's FedCache neighbour rows; a row with
    no neighbour has no teacher."""
    valid = neighbors >= 0
    count = valid.sum(axis=1)
    gathered = np.where(valid[..., None], cache.logits[neighbors], 0.0)
    return teacher_table(gathered.sum(axis=1) / np.maximum(count, 1)[:, None], count > 0, temperature)
