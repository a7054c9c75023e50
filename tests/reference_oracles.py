"""Brute-force reference implementations used only to validate the package."""
import numpy as np


def naive_linkage(X, cut, linkage="average"):
    """O(n^3) agglomerative reference, recomputing distances from scratch.

    At every step, every active cluster pair's dissimilarity is recomputed
    straight from the leaf distance matrix (mean/min/max over member pairs).
    Ties pick the lexicographically smallest (min member, max member, larger
    of the two clusters' min members) key, which no two pairs share.
    Returns (merges, cut_partition) with merges as
    (frozenset(left), frozenset(right), height) over leaf indices.
    """
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    D0 = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    clusters = [[i] for i in range(n)]
    merges = []
    cut_partition = [frozenset(c) for c in clusters] if cut == n else None
    reducer = {"average": np.mean, "single": np.min, "complete": np.max}[linkage]
    while len(clusters) > 1:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = float(reducer(D0[np.ix_(clusters[a], clusters[b])]))
                members = clusters[a] + clusters[b]
                key = (d, min(members), max(members), max(min(clusters[a]), min(clusters[b])))
                if best is None or key < best[0]:
                    best = (key, a, b)
        (height, *_), a, b = best
        left, right = clusters[a], clusters[b]
        if min(right) < min(left):
            left, right = right, left
        merges.append((frozenset(left), frozenset(right), height))
        merged = clusters[a] + clusters[b]
        clusters = [c for i, c in enumerate(clusters) if i not in (a, b)]
        clusters.append(merged)
        if len(clusters) == cut:
            cut_partition = [frozenset(c) for c in clusters]
    return merges, cut_partition


def knn_by_sorting(points, query, k):
    """Independent distance-table kNN: full sort of (distance, index) rows."""
    points = np.asarray(points, dtype=np.float64)
    dists = np.sqrt(((points - query) ** 2).sum(axis=1))
    table = sorted((float(d), i) for i, d in enumerate(dists))
    return [i for _, i in table[:k]]
