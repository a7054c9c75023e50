"""Bottom-up agglomerative clustering over cached logits.

Builds the full merge sequence (Euclidean metric, unweighted average linkage
by default) while recording the partition at the requested cluster count.
Dissimilarity ties are broken by the lexicographically smallest key
(min member id of the union, max member id of the union, larger of the two
clusters' min member ids). Clusters are disjoint, so no two candidate pairs
share a key: the rule is a total order, and the tree depends only on the
sample ids and their vectors, never on insertion order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import InsufficientDataError, InvalidInputError, MissingSampleError
from ..numerics import softmax_rows
from .cache import KnowledgeCache, SampleId

Array = np.ndarray

LINKAGES = ("average", "single", "complete")


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: child node ids and the dissimilarity joining them."""

    left: int
    right: int
    height: float


@dataclass
class ClusterTree:
    """Merge hierarchy over n leaves; node i < n is leaf i, node n+t is merge t.

    The tree holds structure only; teachers average the cache's raw logits
    over its nodes' members.
    """

    leaf_ids: tuple[SampleId, ...]
    merges: tuple[Merge, ...]
    cut_size: int
    parent: Array  # (2n-1,) parent node id, -1 at the root
    node_size: Array  # (2n-1,) member count per node
    cut_node_ids: tuple[int, ...]
    built_at_round: int | None = None
    leaf_index: dict[SampleId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.leaf_index:
            self.leaf_index = {sid: i for i, sid in enumerate(self.leaf_ids)}

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids)

    def children(self, node: int) -> tuple[int, int] | None:
        if node < self.n_leaves:
            return None
        merge = self.merges[node - self.n_leaves]
        return merge.left, merge.right

    def members(self, node: int) -> list[SampleId]:
        """Leaf ids under a node, in SampleId order."""
        stack = [node]
        leaves: list[int] = []
        while stack:
            cur = stack.pop()
            kids = self.children(cur)
            if kids is None:
                leaves.append(cur)
            else:
                stack.extend(kids)
        leaves.sort()
        return [self.leaf_ids[i] for i in leaves]

    def path_nodes(self, sid: SampleId) -> list[int]:
        """Node chain from the singleton leaf up to the cut-level cluster."""
        leaf = self.leaf_index.get(sid)
        if leaf is None:
            raise MissingSampleError(f"{sid} is not a leaf of this tree")
        cut_boundary = self.n_leaves + (self.n_leaves - self.cut_size)
        path = [leaf]
        p = int(self.parent[leaf])
        while p != -1 and p < cut_boundary:
            path.append(p)
            p = int(self.parent[p])
        return path

    def cut_partition(self) -> list[frozenset[SampleId]]:
        return [frozenset(self.members(n)) for n in self.cut_node_ids]


def _pairwise_distances(X: Array) -> Array:
    sq = np.einsum("ij,ij->i", X, X)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    d2 = np.maximum(d2, 0.0)
    d2 = (d2 + d2.T) / 2.0
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def agglomerate(
    vectors: Array, ids: Sequence[SampleId], cut: int, linkage: str = "average"
) -> ClusterTree:
    """Merge to a single cluster, recording the cut at `cut` clusters.

    Rows are reordered by SampleId before clustering, which makes the result
    independent of input order.
    """
    if linkage not in LINKAGES:
        raise InvalidInputError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    X = np.asarray(vectors, dtype=np.float64)
    ids = list(ids)
    if X.ndim != 2 or X.shape[0] != len(ids):
        raise InvalidInputError("vectors must be (n, d) aligned with ids")
    if len(set(ids)) != len(ids):
        raise InvalidInputError("duplicate sample ids")
    n = len(ids)
    if cut < 1 or n < cut:
        raise InsufficientDataError(f"{n} records cannot be cut into {cut} clusters")

    order = sorted(range(n), key=lambda i: ids[i])
    ids = [ids[i] for i in order]
    X = X[order]

    D = _pairwise_distances(X)
    np.fill_diagonal(D, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    slot_node = list(range(n))  # matrix slot -> current tree node id
    slot_min = list(ids)  # min member id per slot
    slot_max = list(ids)
    active = np.ones(n, dtype=bool)
    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    node_size = np.zeros(2 * n - 1, dtype=np.int64)
    node_size[:n] = 1
    merges: list[Merge] = []
    cut_nodes: tuple[int, ...] = ()
    if cut == n:
        cut_nodes = tuple(range(n))

    # Per-row minima let each step find the global minimum in O(n); only rows
    # whose nearest neighbor was one of the merged slots are rescanned.
    row_min = D.min(axis=1)
    row_arg = D.argmin(axis=1)

    for t in range(n - 1):
        masked = np.where(active, row_min, np.inf)
        height = float(masked.min())
        best = None
        best_key = None
        for r in np.flatnonzero(masked == height):
            for c in np.flatnonzero(D[r] == height):
                i, j = (int(r), int(c)) if r < c else (int(c), int(r))
                key = (
                    min(slot_min[i], slot_min[j]),
                    max(slot_max[i], slot_max[j]),
                    max(slot_min[i], slot_min[j]),
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best = (i, j)
        assert best is not None
        i, j = best
        node = n + t
        left_node, right_node = slot_node[i], slot_node[j]
        if slot_min[j] < slot_min[i]:
            left_node, right_node = right_node, left_node
        merges.append(Merge(left_node, right_node, height))
        parent[slot_node[i]] = node
        parent[slot_node[j]] = node
        node_size[node] = sizes[i] + sizes[j]

        if linkage == "average":
            new_row = (sizes[i] * D[i] + sizes[j] * D[j]) / (sizes[i] + sizes[j])
        elif linkage == "single":
            new_row = np.minimum(D[i], D[j])
        else:
            new_row = np.maximum(D[i], D[j])
        D[i, :] = new_row
        D[:, i] = new_row
        D[i, i] = np.inf
        D[j, :] = np.inf
        D[:, j] = np.inf

        sizes[i] += sizes[j]
        slot_node[i] = node
        slot_min[i] = min(slot_min[i], slot_min[j])
        slot_max[i] = max(slot_max[i], slot_max[j])
        active[j] = False

        row_min[j] = np.inf
        row_min[i] = D[i].min()
        row_arg[i] = D[i].argmin()
        col_i = D[:, i]
        improved = active & (col_i < row_min)
        improved[i] = False
        row_min[improved] = col_i[improved]
        row_arg[improved] = i
        stale = active & ~improved & ((row_arg == i) | (row_arg == j))
        stale[i] = False
        for r in np.flatnonzero(stale):
            row_min[r] = D[r].min()
            row_arg[r] = D[r].argmin()

        if n - (t + 1) == cut:
            cut_nodes = tuple(sorted(slot_node[s] for s in np.flatnonzero(active)))

    return ClusterTree(
        leaf_ids=tuple(ids),
        merges=tuple(merges),
        cut_size=cut,
        parent=parent,
        node_size=node_size,
        cut_node_ids=cut_nodes,
    )


def build_hierarchy(
    cache: KnowledgeCache,
    n_clusters: int,
    linkage: str = "average",
    space: str = "logits",
    temperature: float = 3.0,
) -> ClusterTree:
    """Cluster every uploaded logit record down to n_clusters at the cut.

    space="soft" clusters tempered softmax probabilities instead of raw
    logits; the default clusters the raw vectors. The space shapes only the
    tree: teachers always average raw logits.
    """
    rows = np.flatnonzero(cache.updated_round >= 0)
    if len(rows) < n_clusters:
        raise InsufficientDataError(
            f"cache holds {len(rows)} logit records, need at least {n_clusters}"
        )
    X = cache.logits[rows]
    if space == "soft":
        X = softmax_rows(X, temperature)
    elif space != "logits":
        raise InvalidInputError(f"space must be 'logits' or 'soft', got {space!r}")
    return agglomerate(X, [cache.ids[r] for r in rows], n_clusters, linkage)

