"""Brute-force reference implementations used only to validate the package."""
import heapq
import math
import struct
from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from hks.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, ClientShard, Dataset
from hks.errors import InsufficientDataError, InvalidInputError
from hks.knowledge import ClusterTree, HnswIndex, KnowledgeCache, Merge
from hks.knowledge.hierarchy import LINKAGES
from hks.knowledge.hnsw import Predicate
from hks.models import Model, _layer_slices, batch_loss_and_grad, train_step
from hks.numerics import KdConfig, TeacherTable

Array = np.ndarray
Vector = Sequence[float] | Array


def cache_from_rows(sizes, logits=None, labels=None, n_classes=None):
    """KnowledgeCache of clients holding `sizes[k]` rows each, client by
    client, with row-aligned labels; the given logits are uploaded. Without
    logits the cache waits for its first upload."""
    if logits is not None:
        logits = np.asarray(logits, dtype=np.float64).reshape(sum(sizes), -1)
        n_classes = logits.shape[1]
    cache = KnowledgeCache(sizes, n_classes, labels=labels)
    if logits is not None:
        cache.update_logits(logits)
    return cache


def naive_linkage(X, cut, linkage="average"):
    """O(n^3) agglomerative reference, recomputing distances from scratch.

    At every step, every active cluster pair's dissimilarity is recomputed
    straight from the leaf distance matrix (mean/min/max over member pairs).
    Ties pick the lexicographically smallest (min member, max member, larger
    of the two clusters' min members) key over row indices, which no two
    pairs share.
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


def reference_pairwise_distances(X):
    """Euclidean distances by the textbook formula with a symmetrise pass and
    a zero diagonal: the distances `agglomerate` started from before it built
    them in place."""
    sq = np.einsum("ij,ij->i", X, X)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    d2 = np.maximum(d2, 0.0)
    d2 = (d2 + d2.T) / 2.0
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def dense_linkage(vectors, cut, linkage="average"):
    """The generic Lance-Williams agglomeration over one fixed N x N matrix,
    as `agglomerate` ran before it compacted the matrix; the exact oracle
    for its merges and heights, n - cut of them. Leaf i is row i."""
    if linkage not in LINKAGES:
        raise InvalidInputError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidInputError(f"vectors must be (n, d), got shape {X.shape}")
    n = len(X)
    if cut < 1 or n < cut:
        raise InsufficientDataError(f"{n} records cannot be cut into {cut} clusters")

    D = reference_pairwise_distances(X)
    np.fill_diagonal(D, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    slot_node = list(range(n))  # matrix slot -> current tree node id
    slot_min = list(range(n))  # min member row per slot
    slot_max = list(range(n))
    active = np.ones(n, dtype=bool)
    merges: list[Merge] = []

    # Per-row minima let each step find the global minimum in O(n); only rows
    # whose nearest neighbor was one of the merged slots are rescanned.
    row_min = D.min(axis=1)
    row_arg = D.argmin(axis=1)

    for t in range(n - cut):
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

    return ClusterTree(n, tuple(merges))


def children(tree, node):
    """The two child node ids of a merge node; None for a leaf."""
    if node < tree.n_leaves:
        return None
    merge = tree.merges[node - tree.n_leaves]
    return merge.left, merge.right


def members(tree, node):
    """Leaves (cache rows) under a node, ascending."""
    stack = [node]
    leaves = []
    while stack:
        cur = stack.pop()
        kids = children(tree, cur)
        if kids is None:
            leaves.append(cur)
        else:
            stack.extend(kids)
    return sorted(leaves)


def parents(tree):
    """Each node's parent id, from the merge list; -1 for a root, a node
    that no merge absorbs."""
    parent = [-1] * (tree.n_leaves + len(tree.merges))
    for node, merge in enumerate(tree.merges, start=tree.n_leaves):
        parent[merge.left] = parent[merge.right] = node
    return parent


def path_nodes(tree, leaf):
    """Node chain from a row's singleton leaf up to its root, the cut cluster."""
    if not 0 <= leaf < tree.n_leaves:
        raise KeyError(f"row {leaf} is not a leaf of this tree")
    parent = parents(tree)
    path = [leaf]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return path


def cut_partition(tree):
    """The member sets of the cut clusters: the roots, in node order."""
    return [frozenset(members(tree, node)) for node, p in enumerate(parents(tree)) if p == -1]


def exact_knn(
    points: Array, h: Array, k: int, predicate: Predicate | None = None
) -> list[int]:
    """Exhaustive scan over the (n, d) points; the k nearest rows passing
    the filter, ties broken by row order."""
    diff = np.asarray(points, dtype=np.float64) - np.asarray(h, dtype=np.float64)
    d2 = np.einsum("ij,ij->i", diff, diff)
    out: list[int] = []
    for row in np.argsort(d2, kind="stable").tolist():
        if predicate is None or predicate(row):
            out.append(row)
            if len(out) == k:
                break
    return out


def neighbour_table(cache, hashes, R, query):
    """FedCache's neighbour table row by row: `query(h, k, predicate)` gives
    each row's R nearest same-class rows of other clients, in an
    (n, min(R, m)) table padded with -1, m the largest class count."""
    n = len(cache)
    largest = np.bincount(cache.labels).max(initial=0)
    table = np.full((n, min(R, largest)), -1, dtype=np.int64)
    for row in range(n):

        def same_class_foreign(other):
            return cache.owner[other] != cache.owner[row] and cache.labels[other] == cache.labels[row]

        found = query(hashes[row], R, same_class_foreign)
        table[row, : len(found)] = found
    return table


def exact_neighbour_table(cache, hashes, R):
    """FedCache's neighbour table from `exact_knn` over the hashes."""
    return neighbour_table(cache, hashes, R, lambda h, k, keep: exact_knn(hashes, h, k, keep))


def knn_by_sorting(points, query, k):
    """Independent distance-table kNN: full sort of (distance, index) rows."""
    points = np.asarray(points, dtype=np.float64)
    dists = np.sqrt(((points - query) ** 2).sum(axis=1))
    table = sorted((float(d), i) for i, d in enumerate(dists))
    return [i for _, i in table[:k]]


def path_teacher(cache, tree, row, granularity, exclude_self=True):
    """Per-sample hks teacher logits: one mean of raw cached member logits
    per selected node of the row's cluster path, recomputed from the
    members. With exclude_self a node holding only the row gives none."""
    path = path_nodes(tree, row)
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
    out = []
    for node in nodes:
        kept = [m for m in members(tree, node) if not (exclude_self and m == row)]
        if kept:
            out.append(np.mean([cache.logits[m] for m in kept], axis=0))
    return out


def feddistill_class_teacher(cache, row):
    """Per-sample feddistill teacher: mean logits of the row's class over
    every other client's rows; [] when there are none."""
    pool = [
        cache.logits[other]
        for other in range(len(cache))
        if cache.owner[other] != cache.owner[row] and cache.labels[other] == cache.labels[row]
    ]
    return [np.mean(pool, axis=0)] if pool else []


def neighbour_teacher(cache, neighbour_rows):
    """Per-sample fedcache teacher: mean current logits of the neighbour
    rows (-1 pads nothing)."""
    rows = [row for row in neighbour_rows if row >= 0]
    if not rows:
        return []
    return [np.mean([cache.logits[row] for row in rows], axis=0)]


def _as_vector(z: Vector, name: str = "input") -> Array:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise InvalidInputError(f"{name} must be 1-D, got shape {z.shape}")
    return z


def _require_finite(z: Array, name: str) -> None:
    if not np.all(np.isfinite(z)):
        raise InvalidInputError(f"{name} contains non-finite values")


def softmax_t(z: Vector, temperature: float) -> Array:
    """Softened distribution exp(z_i/T) / sum_j exp(z_j/T), max-subtracted."""
    z = _as_vector(z, "logits")
    _require_finite(z, "logits")
    if not temperature > 0:
        raise InvalidInputError(f"temperature must be > 0, got {temperature}")
    s = z / temperature
    s -= s.max()
    e = np.exp(s)
    return e / e.sum()


def log_softmax(z: Array) -> Array:
    s = z - z.max()
    return s - np.log(np.exp(s).sum())


def cross_entropy(z: Vector, y: int) -> float:
    """-log softmax(z)[y], computed on the log-sum-exp path."""
    z = _as_vector(z, "logits")
    _require_finite(z, "logits")
    if not 0 <= y < z.shape[0]:
        raise IndexError(f"class index {y} out of range for {z.shape[0]} classes")
    m = z.max()
    lse = m + np.log(np.exp(z - m).sum())
    return float(lse - z[y])


def ce_grad(z: Vector, y: int) -> Array:
    """Analytic gradient of cross_entropy: softmax(z) - onehot(y)."""
    z = _as_vector(z, "logits")
    _require_finite(z, "logits")
    if not 0 <= y < z.shape[0]:
        raise IndexError(f"class index {y} out of range for {z.shape[0]} classes")
    g = softmax_t(z, 1.0)
    g[y] -= 1.0
    return g


def _paired(z_s: Vector, z_t: Vector) -> tuple[Array, Array]:
    z_s = _as_vector(z_s, "student logits")
    z_t = _as_vector(z_t, "teacher logits")
    if z_s.shape != z_t.shape:
        raise InvalidInputError(f"student/teacher length mismatch: {z_s.shape} vs {z_t.shape}")
    _require_finite(z_s, "student logits")
    _require_finite(z_t, "teacher logits")
    return z_s, z_t


def kd_loss(z_s: Vector, z_t: Vector, cfg: KdConfig) -> float:
    """Teacher-weighted KL divergence KL(q_t || q_s) at temperature T.

    Both distributions are softened with cfg.temperature, and the result is
    multiplied by T^2. Terms where the teacher probability underflows to
    zero contribute nothing.
    """
    z_s, z_t = _paired(z_s, z_t)
    T = cfg.temperature
    log_qs = log_softmax(z_s / T)
    log_qt = log_softmax(z_t / T)
    q_t = np.exp(log_qt)
    kl = float(np.dot(q_t, log_qt - log_qs))
    return max(kl, 0.0) * (T * T)


def kd_grad(z_s: Vector, z_t: Vector, cfg: KdConfig) -> Array:
    """Gradient of kd_loss w.r.t. the student logits: T (q_s - q_t)."""
    z_s, z_t = _paired(z_s, z_t)
    T = cfg.temperature
    return T * (softmax_t(z_s, T) - softmax_t(z_t, T))


def sgd_step(params: Vector, grads: Vector, lr: float) -> Array:
    """One plain gradient step: params - lr * grads."""
    params = _as_vector(params, "params")
    grads = _as_vector(grads, "grads")
    if params.shape != grads.shape:
        raise InvalidInputError(f"params/grads length mismatch: {params.shape} vs {grads.shape}")
    return params - lr * grads


def finite_diff(f: Callable[[Array], float], x: Vector, eps: float = 1e-5) -> Array:
    """Central-difference gradient oracle: (f(x+eps e_i) - f(x-eps e_i)) / 2 eps."""
    x = _as_vector(x, "x")
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2.0 * eps)
    return g


def mean_kd(z_s, teacher_logits, cfg):
    """KD loss and its student-logit gradient averaged over a sample's
    teachers, one kd_loss/kd_grad call per teacher; (0, 0) without."""
    if not teacher_logits:
        return 0.0, np.zeros_like(z_s)
    loss = np.mean([kd_loss(z_s, z_t, cfg) for z_t in teacher_logits])
    grad = np.mean([kd_grad(z_s, z_t, cfg) for z_t in teacher_logits], axis=0)
    return float(loss), grad


def softmax_rows(Z: Array, temperature: float = 1.0) -> Array:
    """Tempered softmax over the last axis, e.g. of (B, C) logit matrices."""
    S = Z / temperature
    S = S - S.max(axis=-1, keepdims=True)
    E = np.exp(S)
    return E / E.sum(axis=-1, keepdims=True)


def log_softmax_rows(Z: Array) -> Array:
    S = Z - Z.max(axis=-1, keepdims=True)
    return S - np.log(np.exp(S).sum(axis=-1, keepdims=True))


def reference_teacher_table(logits, mask, temperature):
    """Table from padded teacher logits (n, D, C) and their validity mask
    (n, D), in two independent passes: a tempered softmax and a
    log-softmax of the tempered logits, each with its own exp. A sample's q
    and h average over its valid rows in row order; rows without a teacher
    are zero. The bit-exact oracle of every teacher builder."""
    P = softmax_rows(logits, temperature)
    log_P = log_softmax_rows(logits / temperature)
    count = mask.sum(axis=1)
    denom = np.maximum(count, 1)
    q = np.where(mask[..., None], P, 0.0).sum(axis=1) / denom[:, None]
    h = np.where(mask, (P * log_P).sum(axis=-1), 0.0).sum(axis=1) / denom
    return TeacherTable(q, h, count > 0)


def padded_lists(entries, n_classes):
    """Padded teacher logits (n, D, C) and their mask (n, D) from per-sample
    lists of teacher logits ([] for none), D the longest list (at least 1)."""
    depth = max([len(e) for e in entries] + [1])
    logits = np.zeros((len(entries), depth, n_classes))
    mask = np.zeros((len(entries), depth), dtype=bool)
    for i, entry in enumerate(entries):
        for d, z in enumerate(entry):
            logits[i, d] = z
            mask[i, d] = True
    return logits, mask


def table_from_lists(entries, n_classes, temperature):
    """TeacherTable from per-sample lists of teacher logits ([] for none)."""
    return reference_teacher_table(*padded_lists(entries, n_classes), temperature)


def padded_path_teachers(cache, tree, granularity, exclude_self=True):
    """Every cached sample's hks teacher logits, each row's path padded to
    the longest one: (n, D, C) logits and their (n, D) mask.

    The merges are replayed into node sums in merge order, the way
    `fetch_teacher` forms them, so the means (and, through
    `reference_teacher_table`, the table) are bit-exact against it; the
    node selection follows `path_teacher`.
    """
    n = len(cache)
    if tree.n_leaves != n:
        raise InvalidInputError(f"cluster tree has {tree.n_leaves} leaves, the cache {n} rows")
    X = cache.logits
    top = n + len(tree.merges)
    sums = np.empty((top, X.shape[1] + 1))
    sums[:n, :-1] = X
    sums[:n, -1] = 1.0
    parent = np.full(top + 1, -1, dtype=np.int64)
    for node, merge in enumerate(tree.merges, start=n):
        sums[node] = sums[merge.left] + sums[merge.right]
        parent[merge.left] = parent[merge.right] = node
    steps = [np.arange(n)]
    while (steps[-1] >= 0).any():
        steps.append(parent[steps[-1]])
    paths = np.stack(steps[:-1], axis=1)
    length = (paths >= 0).sum(axis=1)
    granularity = str(getattr(granularity, "value", granularity))
    if granularity == "all":
        nodes = paths[:, 1:]
    elif granularity == "bottom":
        nodes = paths[:, 1:2]
    elif granularity == "middle":
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


def param_count(layer_dims: Sequence[int]) -> int:
    return sum((i + 1) * o for i, o in zip(layer_dims[:-1], layer_dims[1:]))


def stack_of(*models: Model) -> Model:
    """A stack holding copies of the models' parameters, in the given order."""
    return replace(models[0], params=np.stack([m.params for m in models]))


def stacked_table(*tables: TeacherTable) -> TeacherTable:
    """One stack member's table rows per given (B,)-row table."""
    return TeacherTable(*(np.stack([getattr(t, f) for t in tables]) for f in ("q", "h", "has")))


def one_model_loss_and_grad(
    m: Model, X: Array, y: Array, teachers: TeacherTable | None, cfg: KdConfig
):
    """The runtime's `batch_loss_and_grad` on a stack of one model, unstacked:
    ((ce, kd) as floats, (P,) gradient, (B, C) logits)."""
    tables = None if teachers is None else stacked_table(teachers)
    (ce, kd), grads, Z = batch_loss_and_grad(stack_of(m), X[None], y[None], tables, cfg)
    return (float(ce[0]), float(kd[0])), grads[0], Z[0]


def one_model_step(
    m: Model, X: Array, y: Array, teachers: TeacherTable | None, cfg: KdConfig, lr: float
):
    """The runtime's `train_step` on a stack of one model, unstacked:
    (trained model, (ce, kd) as floats, (B, C) logits)."""
    stack = stack_of(m)
    tables = None if teachers is None else stacked_table(teachers)
    (ce, kd), Z = train_step(stack, X[None], y[None], tables, cfg, lr)
    return replace(m, params=stack.params[0]), (float(ce[0]), float(kd[0])), Z[0]


def batch_loss(m: Model, X: Array, y: Array, teachers: TeacherTable | None, cfg: KdConfig) -> float:
    (ce, kd), _, _ = one_model_loss_and_grad(m, X, y, teachers, cfg)
    return ce + cfg.alpha_kd * kd


def batch_loss_finite_diff(
    m: Model, X: Array, y: Array, teachers: TeacherTable | None, cfg: KdConfig, eps: float = 1e-5
) -> Array:
    """`finite_diff` of `batch_loss` over one model's flat parameters, from
    one stacked `batch_loss_and_grad` call: rows params + eps e_i, then
    params - eps e_i, each on the same batch and teacher rows."""
    P = m.params.shape[0]
    shift = eps * np.eye(P)
    stack = replace(m, params=np.concatenate([m.params + shift, m.params - shift]))
    tables = None if teachers is None else stacked_table(*[teachers] * (2 * P))
    (ce, kd), _, _ = batch_loss_and_grad(
        stack, np.repeat(X[None], 2 * P, axis=0), np.repeat(y[None], 2 * P, axis=0), tables, cfg
    )
    total = ce + cfg.alpha_kd * kd
    return (total[:P] - total[P:]) / (2.0 * eps)


def _reference_forward_acts(m: Model, X: Array) -> tuple[Array, list[Array], list[Array]]:
    """One model's batched forward pass keeping pre/post activations."""
    pre: list[Array] = []
    post: list[Array] = []
    H = X
    layers = list(_layer_slices(m.layer_dims))
    for li, (ws, bs, i, o) in enumerate(layers):
        W = m.params[ws].reshape(i, o)
        b = m.params[bs]
        A = H @ W + b
        if li < len(layers) - 1:
            pre.append(A)
            H = np.maximum(A, 0.0)
            post.append(H)
        else:
            return A, pre, post
    raise AssertionError("model has no layers")


def reference_batch_loss_and_grad(
    m: Model, X: Array, y: Array, teachers: TeacherTable | None, cfg: KdConfig
) -> tuple[tuple[float, float], Array, Array]:
    """One model's (ce, kd) batch loss, its flat-parameter gradient and its logits,
    computed for that model alone; the oracle for the stacked
    `batch_loss_and_grad`."""
    B = X.shape[0]
    Z, pre, post = _reference_forward_acts(m, X)
    log_p = log_softmax_rows(Z)
    ce = float(-log_p[np.arange(B), y].mean())
    kd = 0.0
    if teachers is not None:
        if len(teachers.has) != B:
            raise InvalidInputError(f"teacher table has {len(teachers.has)} rows, batch has {B}")
        if teachers.q.shape[1] != m.n_classes:
            raise InvalidInputError(
                f"teachers have {teachers.q.shape[1]} classes, model has {m.n_classes}"
            )
        T = cfg.temperature
        scale = T * T
        kl = teachers.h - (teachers.q * log_softmax_rows(Z / T)).sum(axis=1)
        kd = scale * float(np.maximum(kl, 0.0).sum()) / B

    dZ = softmax_rows(Z)
    dZ[np.arange(B), y] -= 1.0
    dZ /= B
    if teachers is not None and cfg.alpha_kd != 0.0:
        has = teachers.has
        dZ[has] += (cfg.alpha_kd / B) * (scale / T) * (softmax_rows(Z[has], T) - teachers.q[has])

    grads = np.zeros_like(m.params)
    layers = list(_layer_slices(m.layer_dims))
    delta = dZ
    for li in range(len(layers) - 1, -1, -1):
        ws, bs, i, o = layers[li]
        A_prev = post[li - 1] if li > 0 else X
        grads[ws] = (A_prev.T @ delta).ravel()
        grads[bs] = delta.sum(axis=0)
        if li > 0:
            W = m.params[ws].reshape(i, o)
            delta = (delta @ W.T) * (pre[li - 1] > 0.0)
    return (ce, kd), grads, Z


def reference_train_step(
    m: Model, X: Array, y: Array, teachers: TeacherTable | None, cfg: KdConfig, lr: float
) -> tuple[Model, tuple[float, float], Array]:
    """One SGD step of one model on the batch-mean loss; returns (model,
    losses, logits). The oracle for the stacked `train_step`."""
    losses, grads, Z = reference_batch_loss_and_grad(m, X, y, teachers, cfg)
    new = replace(m, params=m.params - lr * grads)
    return new, losses, Z


def reference_client_phase(tier, state, round_index, table, uploads):
    """The client phase trained one client after another, each one model at
    a time on its own shard: local epochs on seeded batches, batch j of an
    epoch being the j-th run of batch_size entries of
    `reference_epoch_order`. Same
    signature, results and writes as `federation.client_train`: each trained
    model goes to its stack row and, when there is an upload buffer, its
    logits to its cache rows of `uploads`."""
    cfg = state.config
    ce_out, kd_out = [], []
    for r, k in enumerate(tier.members):
        client = state.clients[k]
        rows = state.cache.rows[k]
        model = replace(tier.stack, params=tier.stack.params[r].copy())
        features = client.shard.train.features
        labels = client.shard.train.labels
        teachers = None if table is None else table.take(rows)
        logits_out = np.empty((len(labels), state.train.n_classes))
        ce_sum = kd_sum = 0.0
        n_samples = 0
        for e in range(cfg.local_epochs):
            epoch_key = round_index * cfg.local_epochs + e
            order = reference_epoch_order(len(labels), k, cfg.seed, epoch_key)
            for i in range(0, order.size, cfg.batch_size):
                batch_idx = order[i : i + cfg.batch_size]
                batch_teachers = None if teachers is None else teachers.take(batch_idx)
                model, (ce, kd), Z = reference_train_step(
                    model, features[batch_idx], labels[batch_idx], batch_teachers, cfg.kd, cfg.lr
                )
                logits_out[batch_idx] = Z
                ce_sum += ce * len(batch_idx)
                kd_sum += kd * len(batch_idx)
                n_samples += len(batch_idx)
        tier.stack.params[r] = model.params
        if uploads is not None:
            uploads[rows] = logits_out
        ce_out.append(ce_sum / n_samples)
        kd_out.append(kd_sum / n_samples)
    return np.array(ce_out), np.array(kd_out)


def reference_synth_blobs(
    n_classes: int, per_class: int, input_dim: int, spread: float, seed: int
) -> Dataset:
    """Gaussian blobs drawn one class at a time: the seeded centers of norm
    4, then each class's noise in its own draw. The bit-exact oracle for
    `synth_blobs`."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_classes, input_dim))
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    centers = 4.0 * centers / norms
    feats = np.concatenate(
        [centers[c] + spread * rng.standard_normal((per_class, input_dim)) for c in range(n_classes)]
    )
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    return Dataset(feats, labels, n_classes)


def reference_synth_train_and_test(
    n_classes, per_class, input_dim, spread, seed, test_per_class=None
) -> tuple[Dataset, Dataset]:
    """The blobs of per_class + test_per_class samples per class, gathered
    into train and test sets through two index lists. The bit-exact oracle
    for `synth_train_and_test`."""
    if test_per_class is None:
        test_per_class = max(1, -(-per_class // 4))
    full = reference_synth_blobs(n_classes, per_class + test_per_class, input_dim, spread, seed)
    block = per_class + test_per_class
    train_idx, test_idx = [], []
    for c in range(n_classes):
        start = c * block
        train_idx.extend(range(start, start + per_class))
        test_idx.extend(range(start + per_class, start + block))
    return full.subset(train_idx), full.subset(test_idx)


def reference_split_local_test(indices, ds: Dataset, test_fraction: float, seed: int):
    """Stratified local split with a class of one shard sample sent to train
    by its own branch. The bit-exact oracle for `split_local_test`."""
    idx = np.asarray(indices, dtype=np.int64)
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for c in np.unique(ds.labels[idx]):
        members = idx[ds.labels[idx] == c]
        rng.shuffle(members)
        if members.size < 2:
            train_idx.extend(members.tolist())
            continue
        n_test = int(np.floor(members.size * test_fraction + 0.5))
        n_test = min(max(n_test, 1), members.size - 1)
        test_idx.extend(members[:n_test].tolist())
        train_idx.extend(members[n_test:].tolist())
    train_idx.sort()
    test_idx.sort()
    return ClientShard(ds.subset(train_idx), ds.subset(test_idx))


def reference_epoch_order(n_train: int, client: int, seed: int, epoch: int) -> Array:
    """`arange(n_train)` shuffled in place by the (seed, client, epoch)
    generator. The bit-exact oracle for `epoch_order`."""
    order = np.arange(n_train)
    rng = np.random.default_rng([seed, client, epoch])
    rng.shuffle(order)
    return order


def write_idx(ds: Dataset, images_path: str | Path, labels_path: str | Path) -> None:
    """Inverse of load_idx, emitting each sample as a 1 x input_dim u8 image."""
    n, d = ds.features.shape
    pixels = np.rint(ds.features * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, 1, d))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(ds.labels.astype(np.uint8).tobytes())


class ReferenceHnsw(HnswIndex):
    """`HnswIndex` with its search and insert path as it ran before each
    insert and query computed all its distances in one pass: one
    `_dist_sq` call per expanded node, one distance minimum per scanned
    neighbour candidate and a tuple sort per overflow prune. The exact
    oracle for the graph (`neighbors`, `levels`, `entry_point`), every
    query result and the order of predicate calls."""

    def _select_neighbors(self, candidates: list[tuple[float, int]], m: int) -> list[int]:
        """Diversity-aware selection; each scanned candidate's distance to
        the kept ones is a fresh minimum over their pairwise distances."""
        if len(candidates) <= m:
            return [n for _, n in candidates]
        scan = min(len(candidates), 3 * m)
        nodes = [n for _, n in candidates[:scan]]
        V = self._vectors[nodes]
        sq = np.einsum("ij,ij->i", V, V)
        between = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (V @ V.T), 0.0)
        selected = [0]
        rejected: list[int] = []
        for idx in range(1, scan):
            if len(selected) == m:
                break
            if candidates[idx][0] < float(between[idx, selected].min()):
                selected.append(idx)
            else:
                rejected.append(idx)
        out = [nodes[i] for i in selected]
        for idx in rejected:
            if len(out) == m:
                break
            out.append(nodes[idx])
        for _, node in candidates[scan:]:
            if len(out) == m:
                break
            out.append(node)
        return out

    def _search_layer(
        self, q: Array, entries: list[int], layer: int, ef: int
    ) -> list[tuple[float, int]]:
        """Best-first search; returns up to ef (distance^2, node) ascending."""
        visited = set(entries)
        d = self._dist_sq(q, entries)
        candidates = [(float(di), n) for di, n in zip(d, entries)]
        heapq.heapify(candidates)
        pool = [(-di, n) for di, n in candidates]
        heapq.heapify(pool)
        while candidates:
            dist, node = heapq.heappop(candidates)
            if len(pool) >= ef and dist > -pool[0][0]:
                break
            layer_nbrs = self.neighbors[node]
            if layer >= len(layer_nbrs):
                continue
            fresh = [x for x in layer_nbrs[layer] if x not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            nd = self._dist_sq(q, fresh)
            for di, nn in zip(nd, fresh):
                di = float(di)
                if len(pool) < ef:
                    heapq.heappush(candidates, (di, nn))
                    heapq.heappush(pool, (-di, nn))
                elif di < -pool[0][0]:
                    heapq.heappush(candidates, (di, nn))
                    heapq.heappushpop(pool, (-di, nn))
        return sorted((-negd, n) for negd, n in pool)

    def insert(self, h: Array) -> None:
        h = np.asarray(h, dtype=np.float64)
        node = len(self.levels)
        if node == self._vectors.shape[0]:
            grown = np.empty((2 * self._vectors.shape[0], self.dim), dtype=np.float64)
            grown[:node] = self._vectors
            self._vectors = grown
        self._vectors[node] = h
        level = self._draw_level()
        self.levels.append(level)
        self.neighbors.append([[] for _ in range(level + 1)])

        if self.entry_point is None:
            self.entry_point = node
            self.top_level = level
            return

        entries = [self.entry_point]
        for layer in range(self.top_level, level, -1):
            found = self._search_layer(h, entries, layer, 1)
            entries = [found[0][1]]
        for layer in range(min(level, self.top_level), -1, -1):
            candidates = self._search_layer(h, entries, layer, self.ef_construction)
            cap = self.m0 if layer == 0 else self.m
            chosen = self._select_neighbors(candidates, self.m)
            for nb in chosen:
                self.neighbors[node][layer].append(nb)
                self.neighbors[nb][layer].append(node)
                if len(self.neighbors[nb][layer]) > cap:
                    # overflow prune keeps the cap nearest links
                    others = self.neighbors[nb][layer]
                    dists = self._dist_sq(self._vectors[nb], others)
                    ranked = sorted((float(di), o) for di, o in zip(dists, others))
                    self.neighbors[nb][layer] = [o for _, o in ranked[:cap]]
            entries = [n for _, n in candidates]
        if level > self.top_level:
            self.entry_point = node
            self.top_level = level

    def query(self, h: Array, k: int, predicate: Predicate | None = None) -> list[int]:
        """Up to k nodes passing the filter, ascending Euclidean distance."""
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        if not self.levels:
            return []
        h = np.asarray(h, dtype=np.float64)
        entries = [self.entry_point]
        for layer in range(self.top_level, 0, -1):
            found = self._search_layer(h, entries, layer, 1)
            entries = [found[0][1]]
        pool = self._search_layer(h, entries, 0, max(self.ef_search, k))
        hits = []
        for dist, node in pool:
            if predicate is None or predicate(node):
                hits.append((dist, node))
        hits.sort()
        return [node for _, node in hits[:k]]
