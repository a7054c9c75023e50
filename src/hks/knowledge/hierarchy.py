"""Bottom-up agglomerative clustering over cached logits.

Merges clusters (Euclidean metric, unweighted average linkage by default)
until the requested count remains: those clusters are the tree's roots, and
no teacher reads anything above them.
Leaf i is row i of the input, and dissimilarity ties are broken by the
lexicographically smallest key over row indices (min member row of the
union, max member row of the union, larger of the two clusters' min member
rows). Clusters are disjoint, so no two candidate pairs share a key: the
rule is a total order, and the tree is a function of the rows in their
given order. Reordering rows can change which of two tied pairs merges
first; the cache fixes the order (client by client, then local index).
A tie is settled by enumerating every pair at the minimum under that key,
never by slot order; when exactly two rows hold the minimum they are the
only such pair.

The dissimilarities live in one N x N float64 matrix, built in place. Each
time the live clusters fall to half its side, their rows and columns are
copied, in order, into a matrix of the live count, so later steps cost the
live count rather than N. Slot order is kept, so every step picks the same
pair and computes the same Lance-Williams row as over the full matrix.
A merge of slots i < j writes the new row into row i and column i, and
nothing else: column j, like every dead slot's column, keeps stale values,
and a penalty vector (0 on a live slot, inf on a dead one) masks them
wherever a row is read whole, in the tie scan, the row-minimum rescans and
the next Lance-Williams row.

Known gap: the Lance-Williams average update and a fresh mean over member
pairs (`naive_linkage` in the tests) can round an exact real tie
differently, so on rare inputs average linkage merges one of two tied pairs
where the fresh mean merges the other. Single and complete linkage update
by min and max, which add no rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError, InvalidInputError
from ..numerics import tempered_softmax
from .cache import KnowledgeCache

Array = np.ndarray

LINKAGES = ("average", "single", "complete")
# Rows of the distance matrix finished per pass over a (block, N) temporary.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: child node ids and the dissimilarity joining them."""

    left: int
    right: int
    height: float


@dataclass(frozen=True)
class ClusterTree:
    """Merge list over n leaves; node i < n is leaf i, node n+t is merge t.

    The nodes that no merge absorbs are the roots: the cut clusters, one per
    cluster left when the merging stopped. The tree holds structure only;
    teachers average the cache's raw logits over its nodes' members.
    """

    n_leaves: int
    merges: tuple[Merge, ...]


def _pairwise_distances(X: Array) -> Array:
    """Euclidean distances with an inf diagonal, in one (n, n) buffer.

    Bit for bit sqrt(max(sq_i + sq_j - 2 X_i.X_j, 0)): negation and
    commutation are exact, and X @ X.T is a symmetric rank-k product, so the
    matrix is exactly symmetric without a transposed pass.
    """
    sq = np.einsum("ij,ij->i", X, X)
    D = X @ X.T
    D *= -2.0
    for lo in range(0, len(X), _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        D[lo:hi] += sq[lo:hi, None] + sq[None, :]
    np.maximum(D, 0.0, out=D)
    np.sqrt(D, out=D)
    np.fill_diagonal(D, np.inf)
    return D


def agglomerate(vectors: Array, cut: int, linkage: str = "average") -> ClusterTree:
    """Merge the rows of `vectors` (leaf i is row i) until `cut` clusters
    remain, in n - cut merges; cut=1 gives the whole dendrogram."""
    if linkage not in LINKAGES:
        raise InvalidInputError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidInputError(f"vectors must be (n, d), got shape {X.shape}")
    n = len(X)
    if cut < 1 or n < cut:
        raise InsufficientDataError(f"{n} records cannot be cut into {cut} clusters")
    if not np.isfinite(X).all():
        raise InvalidInputError("vectors must be finite")
    # With every squared norm at most max/4, no squared distance, distance or
    # Lance-Williams update can overflow (Cauchy-Schwarz bounds |X_i.X_j|).
    with np.errstate(over="ignore"):
        if np.einsum("ij,ij->i", X, X).max() > np.finfo(np.float64).max / 4:
            raise InvalidInputError("vectors are too large: squared distances overflow")

    D = _pairwise_distances(X)
    sizes = np.ones(n, dtype=np.int64)
    slot_node = list(range(n))  # matrix slot -> current tree node id
    slot_min = list(range(n))  # min member row per slot
    slot_max = list(range(n))
    pen = np.zeros(n)  # 0 on a live slot, inf on a dead one
    merges: list[Merge] = []

    # Per-row minima over the live columns let each step find the global
    # minimum in O(n); a dead slot's row_min stays inf.
    row_arg = D.argmin(axis=1)
    row_min = D[np.arange(n), row_arg]

    for t in range(n - cut):
        live = n - t
        if 2 * live <= len(D):
            keep = np.flatnonzero(pen == 0.0)
            slot_of = np.full(len(D), -1, dtype=np.int64)
            slot_of[keep] = np.arange(live)
            D = D[np.ix_(keep, keep)]
            sizes, row_min = sizes[keep], row_min[keep]
            row_arg = slot_of[row_arg[keep]]
            slot_node = [slot_node[s] for s in keep]
            slot_min = [slot_min[s] for s in keep]
            slot_max = [slot_max[s] for s in keep]
            pen = np.zeros(live)

        height = float(row_min.min())
        tied = np.flatnonzero(row_min == height)
        if len(tied) == 2:
            # Two rows at the minimum can only be each other's pair.
            i, j = int(tied[0]), int(tied[1])
        else:
            best = None
            best_key = None
            for r in tied:
                for c in np.flatnonzero(D[r] + pen == height):
                    a, b = (int(r), int(c)) if r < c else (int(c), int(r))
                    key = (
                        min(slot_min[a], slot_min[b]),
                        max(slot_max[a], slot_max[b]),
                        max(slot_min[a], slot_min[b]),
                    )
                    if best_key is None or key < best_key:
                        best_key = key
                        best = (a, b)
            assert best is not None
            i, j = best
        node = n + t
        left_node, right_node = slot_node[i], slot_node[j]
        if slot_min[j] < slot_min[i]:
            left_node, right_node = right_node, left_node
        merges.append(Merge(left_node, right_node, height))

        # The merged row is built in place in row i (a view of D); adding
        # pen with i and j at inf puts inf at i, j and every dead slot.
        pen[i] = pen[j] = np.inf
        row = D[i]
        if linkage == "average":
            row *= sizes[i]
            row += sizes[j] * D[j]
            row /= sizes[i] + sizes[j]
        elif linkage == "single":
            np.minimum(row, D[j], out=row)
        else:
            np.maximum(row, D[j], out=row)
        row += pen
        pen[i] = 0.0
        D[:, i] = row

        sizes[i] += sizes[j]
        slot_node[i] = node
        slot_min[i] = min(slot_min[i], slot_min[j])
        slot_max[i] = max(slot_max[i], slot_max[j])

        row_arg[i] = row.argmin()
        row_min[i] = row[row_arg[i]]
        row_min[j] = np.inf
        # Only a row whose nearest slot was i or j and whose new distance
        # exceeds its old minimum is rescanned. Every other row's other
        # columns are unchanged, so its minimum is min(old, new), and its
        # nearest slot becomes i where the new distance reaches it.
        near = (row_arg == i) | (row_arg == j)
        near &= row > row_min
        stale = np.flatnonzero(near)
        np.minimum(row_min, row, out=row_min)
        row_arg[row == row_min] = i
        for r in stale:
            masked = D[r] + pen
            row_arg[r] = masked.argmin()
            row_min[r] = masked[row_arg[r]]

    return ClusterTree(n, tuple(merges))


def build_hierarchy(
    cache: KnowledgeCache,
    n_clusters: int,
    linkage: str = "average",
    space: str = "logits",
    temperature: float = 3.0,
) -> ClusterTree:
    """Cluster every cache row's logits until n_clusters roots remain; leaf
    i is cache row i, so the cache must hold a round's uploads.

    space="soft" clusters tempered softmax probabilities instead of raw
    logits; the default clusters the raw vectors. The space shapes only the
    tree: teachers always average raw logits.
    """
    if cache.round < 0:
        raise InsufficientDataError("the cache holds no uploaded logits yet")
    X = cache.logits
    if space == "soft":
        X, _ = tempered_softmax(X, temperature)
    elif space != "logits":
        raise InvalidInputError(f"space must be 'logits' or 'soft', got {space!r}")
    return agglomerate(X, n_clusters, linkage)

