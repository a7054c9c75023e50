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
Live slots are in the order of their clusters' min member rows (a merge
writes into its lower slot, and compaction keeps order), so the key
compares slot indices where it names min member rows.

Each slot keeps a lower bound on its row's minimum over the live columns
(Muellner, arXiv:1109.2378). A step reads the row of the first least bound
into one row buffer and, while the row's minimum exceeds it, raises that
bound and picks again. The slot i it settles on is the first at the global
minimum, since every earlier bound is larger. The matrix is exactly
symmetric, so both slots of a pair at the minimum hold it: i leads the
least key, and its partner is the slot at the minimum in row i with the
least (max member row, slot). The pick's own argmin gives the first such
slot; a second reduction, with that slot masked, only detects a tie, and
only a tie compares the tied slots' max member rows, so a tie costs
O(tied slots) per merge. A merge changes only column i of the other rows,
and lowers their bounds to it (an average can round below the old
minimum).

The dissimilarities live in one N x N float64 matrix, built in place. Each
time the live clusters fall to half its side, their rows and columns move,
in order, into the top-left block of the same buffer, so later steps cost
the live count rather than N. Slot order is kept, so every step picks the
same pair and computes the same Lance-Williams row as over the full matrix.
A merge of slots i < j writes the new row into row i and column i, and
nothing else: column j, like every dead slot's column, keeps stale values,
and a penalty vector (0 on a live slot, inf on a dead one) masks them
wherever a row is read whole.

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
from .cache import KnowledgeCache

Array = np.ndarray

LINKAGES = ("average", "single", "complete")
# Rows of the distance matrix finished per pass over a (block, N) temporary.
_BLOCK_ROWS = 64


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

    if cut == n:
        return ClusterTree(n, ())

    D = _pairwise_distances(X)
    sizes = np.ones(n, dtype=np.int64)
    slot_node = list(range(n))  # matrix slot -> current tree node id
    slot_max = np.arange(n)  # max member row per slot
    pen = np.zeros(n)  # 0 on a live slot, inf on a dead one
    buf = np.empty(n)  # the picked row plus pen
    merges: list[Merge] = []

    # A lower bound on each row's live minimum; inf on a dead slot.
    row_min = D.min(axis=1)

    for t in range(n - cut):
        live = n - t
        if 2 * live <= len(D):
            # In place: new row r ends before old row keep[r + 1] starts.
            keep = np.flatnonzero(pen == 0.0)
            old, D = D, D.reshape(-1)[: live * live].reshape(live, live)
            for r, k in enumerate(keep):
                D[r] = old[k, keep]
            sizes, row_min = sizes[keep], row_min[keep]
            slot_node = [slot_node[s] for s in keep]
            slot_max = slot_max[keep]
            pen, buf = np.zeros(live), buf[:live]

        while True:
            i = int(row_min.argmin())
            np.add(D[i], pen, out=buf)
            j = int(buf.argmin())
            height = float(buf[j])
            if height == row_min[i]:
                break
            row_min[i] = height
        buf[j] = np.inf
        if buf.min() == height:
            buf[j] = height
            partners = np.flatnonzero(buf == height)
            j = int(partners[np.argmin(np.maximum(slot_max[i], slot_max[partners]))])
        merges.append(Merge(slot_node[i], slot_node[j], height))

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
        slot_node[i] = n + t
        slot_max[i] = max(slot_max[i], slot_max[j])

        # Lowered to the new distances, the bounds hold where an average
        # rounds below a row's old minimum.
        np.minimum(row_min, row, out=row_min)
        row_min[i] = row.min()
        row_min[j] = np.inf

    return ClusterTree(n, tuple(merges))


def build_hierarchy(
    cache: KnowledgeCache, n_clusters: int, linkage: str = "average"
) -> ClusterTree:
    """Cluster every cache row's raw logits until n_clusters roots remain;
    leaf i is cache row i, so the cache must hold a round's uploads."""
    if cache.logits is None:
        raise InsufficientDataError("the cache holds no uploaded logits yet")
    return agglomerate(cache.logits, n_clusters, linkage)

