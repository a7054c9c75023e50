"""Brute-force reference implementations used only to validate the package."""
import math

import numpy as np

from hks.knowledge import KnowledgeCache
from hks.numerics import kd_grad, kd_loss, teacher_table


def cache_from_rows(ids, logits=None, labels=None, hashes=None, n_classes=None, round_index=0):
    """KnowledgeCache over `ids` (any order) with row-aligned labels and
    hashes; the given logits rows are uploaded one block per client at
    `round_index`. Without logits every row stays before its first upload."""
    ids = list(ids)
    if logits is not None:
        logits = np.asarray(logits, dtype=np.float64).reshape(len(ids), -1)
        n_classes = logits.shape[1]
    cache = KnowledgeCache(ids, n_classes, labels=labels, hashes=hashes)
    if logits is not None:
        for k in cache.rows:
            mine = sorted((sid, i) for i, sid in enumerate(ids) if sid.client_id == k)
            cache.update_logits(k, logits[[i for _, i in mine]], round_index)
    return cache


def row_of(cache):
    """SampleId -> cache row."""
    return {sid: row for row, sid in enumerate(cache.ids)}


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


def path_teacher(cache, tree, sid, granularity, exclude_self=True):
    """Per-sample hks teacher logits: one mean of raw cached member logits
    per selected node of the sample's cluster path, recomputed from the
    members. With exclude_self a node holding only the sample gives none."""
    path = tree.path_nodes(sid)
    length = len(path)
    granularity = str(getattr(granularity, "value", granularity))
    if granularity == "bottom":
        nodes = path[1:2]
    elif granularity == "middle":
        nodes = [path[math.ceil((1 + length) / 2) - 1]] if length >= 2 else []
    elif granularity == "top":
        nodes = [path[-1]]
    else:
        nodes = path[1:]
    rows = row_of(cache)
    out = []
    for node in nodes:
        members = [m for m in tree.members(node) if not (exclude_self and m == sid)]
        if members:
            out.append(np.mean([cache.logits[rows[m]] for m in members], axis=0))
    return out


def feddistill_class_teacher(cache, sid):
    """Per-sample feddistill teacher: mean logits of the sample's class over
    every other client's samples that hold logits; [] when there are none."""
    y = cache.labels[row_of(cache)[sid]]
    rows = [
        cache.logits[row]
        for row, other in enumerate(cache.ids)
        if other.client_id != sid.client_id
        and cache.labels[row] == y
        and cache.updated_round[row] >= 0
    ]
    return [np.mean(rows, axis=0)] if rows else []


def neighbour_teacher(cache, neighbour_rows):
    """Per-sample fedcache teacher: mean current logits of the neighbour
    rows (-1 pads nothing)."""
    rows = [row for row in neighbour_rows if row >= 0]
    if not rows:
        return []
    return [np.mean([cache.logits[row] for row in rows], axis=0)]


def mean_kd(z_s, teacher_logits, cfg):
    """KD loss and its student-logit gradient averaged over a sample's
    teachers, one numerics.kd_loss/kd_grad call per teacher; (0, 0) without."""
    if not teacher_logits:
        return 0.0, np.zeros_like(z_s)
    loss = np.mean([kd_loss(z_s, z_t, cfg) for z_t in teacher_logits])
    grad = np.mean([kd_grad(z_s, z_t, cfg) for z_t in teacher_logits], axis=0)
    return float(loss), grad


def table_from_lists(entries, n_classes, temperature):
    """TeacherTable from per-sample lists of teacher logits ([] for none),
    padded to the longest list."""
    depth = max([len(e) for e in entries] + [1])
    logits = np.zeros((len(entries), depth, n_classes))
    mask = np.zeros((len(entries), depth), dtype=bool)
    for i, entry in enumerate(entries):
        for d, z in enumerate(entry):
            logits[i, d] = z
            mask[i, d] = True
    return teacher_table(logits, mask, temperature)
