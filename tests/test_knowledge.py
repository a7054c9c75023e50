import copy
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hks.errors import DegenerateInputError, InsufficientDataError, InvalidInputError
from hks.knowledge import (
    Granularity,
    HnswIndex,
    KnowledgeCache,
    RandomProjectionEncoder,
    agglomerate,
    build_hierarchy,
    fedcache_neighbors,
    fedcache_teacher,
    feddistill_teacher,
    fetch_teacher,
)
from hks.knowledge import teachers
from hks.knowledge.hierarchy import _pairwise_distances

from reference_oracles import (
    cache_from_rows,
    cut_partition,
    dense_linkage,
    exact_knn,
    exact_neighbour_table,
    feddistill_class_teacher,
    knn_by_sorting,
    members,
    naive_linkage,
    path_nodes,
    ReferenceHnsw,
    neighbour_teacher,
    padded_lists,
    padded_path_teachers,
    path_teacher,
    reference_pairwise_distances,
    reference_teacher_table,
    table_from_lists,
)


def make_cache(points, clients=None, labels=None):
    """Cache of one uploaded row per point, row i held by client clients[i]
    (nondecreasing; all client 0 by default)."""
    points = np.asarray(points, dtype=np.float64).reshape(len(points), -1)
    clients = [0] * len(points) if clients is None else clients
    assert clients == sorted(clients), "rows run client by client"
    sizes = np.bincount(clients).tolist()
    return cache_from_rows(sizes, points, labels=labels)


def encode(enc, x):
    return enc.encode_rows(x[None])[0]


class TestEncodeHash:
    def test_deterministic(self):
        x = np.arange(6.0)
        a, b = RandomProjectionEncoder(6, 4, seed=3), RandomProjectionEncoder(6, 4, seed=3)
        np.testing.assert_array_equal(encode(a, x), encode(b, x))

    def test_unit_norm(self):
        h = encode(RandomProjectionEncoder(10, 8, seed=5), np.linspace(1, 2, 10))
        assert abs(np.linalg.norm(h) - 1.0) < 1e-9

    def test_scale_invariance(self):
        enc = RandomProjectionEncoder(3, 4, seed=1)
        x = np.array([0.5, -1.0, 2.0])
        np.testing.assert_allclose(encode(enc, x), encode(enc, 2 * x), atol=1e-12)

    def test_zero_input_degenerates(self):
        with pytest.raises(DegenerateInputError):
            encode(RandomProjectionEncoder(5, 4, seed=0), np.zeros(5))

    def test_rows_whose_norms_overflow_are_rejected_without_a_warning(self):
        # the projections' squares overflow: every norm would read inf and
        # every hash 0
        X = np.random.default_rng(2).normal(scale=1e155, size=(6, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="features are too large to hash"):
                RandomProjectionEncoder(4, 16, seed=0).encode_rows(X)


class TestExactKnn:
    def test_singleton(self):
        assert exact_knn([[1.0, 0.0]], np.array([0.0, 0.0]), 3) == [0]

    def test_tie_break_by_sample_id(self):
        out = exact_knn([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]], np.array([1.0, 0.0]), 3)
        assert out == [0, 1, 2]

    def test_matches_independent_sorted_table(self):
        rng = np.random.default_rng(17)
        points = rng.normal(size=(200, 6))
        q = rng.normal(size=6)
        mine = exact_knn(points, q, 10)
        reference = knn_by_sorting(points, q, 10)
        assert mine == reference

    def test_filter(self):
        points = [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]
        out = exact_knn(points, np.array([0.0, 0.0]), 2, lambda row: row != 0)
        assert out == [1, 2]


class TestHnsw:
    def build(self, points, seed=0, **kwargs):
        index = HnswIndex(points.shape[1], seed=seed, **kwargs)
        for p in points:
            index.insert(p)
        return index

    def test_query_of_indexed_vector_returns_itself_first(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(50, 8))
        index = self.build(points)
        assert index.query(points[17], 5)[0] == 17

    def test_k_larger_than_index(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(6, 4))
        index = self.build(points)
        assert len(index.query(points[0], 50)) == 6

    def test_empty_index_returns_empty(self):
        index = HnswIndex(4)
        assert index.query(np.zeros(4), 3) == []

    def test_degree_caps(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(300, 8))
        index = self.build(points, m=8)
        for node, layers in enumerate(index.neighbors):
            for layer, nbrs in enumerate(layers):
                cap = index.m0 if layer == 0 else index.m
                assert len(nbrs) <= cap, (node, layer)

    def test_layer0_reachability(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(250, 8))
        index = self.build(points)
        seen = {index.entry_point}
        frontier = [index.entry_point]
        while frontier:
            nxt = []
            for node in frontier:
                for nb in index.neighbors[node][0]:
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
            frontier = nxt
        assert len(seen) == len(index)

    def test_recall_against_exact(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(400, 16))
        index = self.build(points, m=16, ef_construction=100, ef_search=64)
        hits = total = 0
        for q in rng.normal(size=(50, 16)):
            truth = set(exact_knn(points, q, 10))
            found = set(index.query(q, 10))
            hits += len(truth & found)
            total += 10
        assert hits / total >= 0.9

    def test_filtered_query(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(40, 4))
        index = self.build(points)
        out = index.query(points[0], 5, lambda node: node % 2 == 1)
        assert out and all(node % 2 == 1 for node in out)

    @pytest.mark.parametrize(
        "call",
        [
            lambda index: index.insert(0.25),
            lambda index: index.insert(np.ones(5)),
            lambda index: index.insert(np.ones((1, 4))),
            lambda index: index.query(0.5, 3),
            lambda index: index.query(np.array([0.5]), 3),
        ],
        ids=["insert-scalar", "insert-width-5", "insert-row-matrix", "query-scalar", "query-width-1"],
    )
    def test_hash_vector_of_the_wrong_shape_rejected(self, call):
        points = np.random.default_rng(6).normal(size=(10, 4))
        index = self.build(points)
        graph = copy.deepcopy(index.neighbors)
        with pytest.raises(InvalidInputError, match=r"hash vector must have shape \(4,\)"):
            call(index)
        assert len(index) == 10 and len(index.neighbors) == 10
        assert index.neighbors == graph

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", ["insert", "query"])
    def test_non_finite_hash_vector_rejected(self, method, bad):
        points = np.random.default_rng(7).normal(size=(10, 4))
        index = self.build(points)
        h = np.zeros(4)
        h[2] = bad
        with pytest.raises(InvalidInputError):
            index.insert(h) if method == "insert" else index.query(h, 3)
        assert len(index) == 10 and len(index.neighbors) == 10


def tie_heavy_points(n, dim, seed):
    """Normal rows, a quarter of them replaced by points of the integer grid
    {-1, 0, 1}^dim and a fifth by copies of other rows, so equal distances
    (and so heap ties) are common."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    X[: n // 4] = rng.integers(-1, 2, size=(n // 4, dim))
    X[rng.integers(0, n, size=n // 5)] = X[rng.integers(0, n, size=n // 5)]
    return X


def recording(calls, keep):
    """Predicate that appends every node it is asked about to `calls`."""

    def predicate(node):
        calls.append(node)
        return keep(node)

    return predicate


class TestHnswMatchesReference:
    """The one-pass index builds the same graph as the per-expansion
    reference, and every query returns the same nodes after asking the
    predicate about the same nodes in the same order."""

    @pytest.mark.parametrize(
        "n, dim, m, ef_construction, ef_search, seed",
        [
            (40, 2, 2, 1, 1, 0),
            (150, 3, 3, 8, 4, 1),
            (200, 4, 5, 300, 500, 2),
            (300, 8, 8, 40, 16, 3),
            (400, 16, 16, 200, 64, 4),
        ],
    )
    def test_same_graph_and_queries(self, n, dim, m, ef_construction, ef_search, seed):
        X = tie_heavy_points(n, dim, seed)
        params = dict(m=m, ef_construction=ef_construction, ef_search=ef_search, seed=seed)
        index, reference = HnswIndex(dim, **params), ReferenceHnsw(dim, **params)
        for x in X:
            index.insert(x)
            reference.insert(x)
        assert index.neighbors == reference.neighbors
        assert index.levels == reference.levels
        assert index.entry_point == reference.entry_point
        assert index.top_level == reference.top_level

        def keep(node):
            return node % 3 != 1

        queries = np.vstack([X[::7], tie_heavy_points(30, dim, seed + 100)])
        for q in queries:
            for k in (1, 5, n + 10):
                assert index.query(q, k) == reference.query(q, k)
                calls, reference_calls = [], []
                found = index.query(q, k, recording(calls, keep))
                assert found == reference.query(q, k, recording(reference_calls, keep))
                assert calls == reference_calls

    def test_growing_index_answers_like_the_reference_after_every_insert(self):
        X = tie_heavy_points(60, 3, 5)
        index, reference = HnswIndex(3, m=3, seed=5), ReferenceHnsw(3, m=3, seed=5)
        for i, x in enumerate(X):
            index.insert(x)
            reference.insert(x)
            q = X[(7 * i) % (i + 1)]
            assert index.query(q, 4) == reference.query(q, 4)
        assert index.neighbors == reference.neighbors


class TestCache:
    def test_update_then_read(self):
        cache = make_cache([[1.0, 2.0], [3.0, 4.0]], clients=[0, 1])
        Z = np.array([[5.0, 6.0], [7.0, 8.0]])
        cache.update_logits(Z)
        # the cache keeps a copy: later writes to Z do not reach it
        Z[0] = 9.0
        np.testing.assert_array_equal(cache.logits, [[5.0, 6.0], [7.0, 8.0]])

    def test_last_update_wins(self):
        cache = make_cache([[0.0]])
        cache.update_logits(np.array([[1.0]]))
        cache.update_logits(np.array([[2.0]]))
        np.testing.assert_array_equal(cache.logits[0], [2.0])

    def test_label_free_mode_has_no_labels(self):
        cache = make_cache([[1.0], [2.0]])
        assert cache.labels is None
        with pytest.raises(InvalidInputError, match="cache stores no labels"):
            cache.read_labels()
        assert cache.label_reads == 0

    def test_client_blocks_follow_the_sizes(self):
        logits = np.arange(10.0).reshape(5, 2)
        cache = cache_from_rows([2, 0, 1, 2], logits, labels=[4, 1, 2, 0, 5])
        assert len(cache) == 5
        assert cache.rows == [slice(0, 2), slice(2, 2), slice(2, 3), slice(3, 5)]
        assert cache.owner.tolist() == [0, 0, 2, 3, 3]
        # labels stay in the given row order
        np.testing.assert_array_equal(cache.logits, logits)
        assert cache.labels.tolist() == [4, 1, 2, 0, 5]

    def test_negative_size_rejected(self):
        with pytest.raises(InvalidInputError):
            KnowledgeCache([2, -1, 1], 2)

    @pytest.mark.parametrize(
        "column, values", [("labels", [0, 1]), ("labels", [0, 1, 0, 1]), ("labels", 0)]
    )
    def test_column_with_the_wrong_row_count_rejected(self, column, values):
        # nothing reorders labels, so a wrong count is never cut to fit
        with pytest.raises(InvalidInputError, match="labels must have 3 rows"):
            KnowledgeCache([1, 2], 2, **{column: values})

    def test_rows_wait_for_their_first_upload(self):
        cache = KnowledgeCache([1, 1], 3)
        assert cache.logits is None
        assert cache.labels is None
        cache.update_logits(np.zeros((2, 3)))
        assert cache.logits.shape == (2, 3)

    @pytest.mark.parametrize(
        "shape", [(1, 2), (2, 2), (4, 2), (3, 1), (3, 3), (2, 3), (3,), (6,), (3, 2, 1), ()]
    )
    def test_block_of_the_wrong_shape_rejected(self, shape):
        # one upload covers every row of every client, zero-size ones included
        logits = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        cache = cache_from_rows([2, 0, 1], logits)
        with pytest.raises(InvalidInputError, match=r"expected \(3, 2\)"):
            cache.update_logits(np.zeros(shape))
        np.testing.assert_array_equal(cache.logits, logits)
        fresh = KnowledgeCache([2, 0, 1], 2)
        with pytest.raises(InvalidInputError, match=r"expected \(3, 2\)"):
            fresh.update_logits(np.zeros(shape))
        assert fresh.logits is None

    def test_label_reads_count_every_row(self):
        cache = make_cache([[1.0], [2.0], [3.0]], labels=[0, 1, 0])
        assert cache.read_labels().tolist() == [0, 1, 0]
        assert cache.label_reads == 3


class FourPoints:
    """1-D logits {0, 0.1, 10, 10.1}; at a 2-cluster cut the pairs separate."""

    values = [0.0, 0.1, 10.0, 10.1]

    def tree(self, cut=2):
        cache = make_cache(self.values)
        return cache, build_hierarchy(cache, cut)


class TestBuildHierarchy(FourPoints):
    def test_four_point_cut(self):
        _, tree = self.tree()
        partition = set(cut_partition(tree))
        assert partition == {frozenset({0, 1}), frozenset({2, 3})}

    def test_heights_nondecreasing(self):
        rng = np.random.default_rng(6)
        cache = make_cache(rng.normal(size=(20, 3)))
        tree = build_hierarchy(cache, 3)
        heights = [m.height for m in tree.merges]
        assert all(b >= a - 1e-9 for a, b in zip(heights, heights[1:]))

    def test_insufficient_records(self):
        cache = make_cache([[1.0], [2.0]])
        with pytest.raises(InsufficientDataError):
            build_hierarchy(cache, 3)

    def test_cache_before_its_first_upload_rejected(self):
        # leaf i is cache row i, so a cache that holds no upload cannot be clustered
        cache = cache_from_rows([2, 1], n_classes=1)
        assert cache.logits is None
        with pytest.raises(InsufficientDataError):
            build_hierarchy(cache, 2)

    @pytest.mark.parametrize("dim", [2, 10])
    def test_matches_naive_reference(self, dim):
        rng = np.random.default_rng(70 + dim)
        for _ in range(6):
            n = int(rng.integers(4, 33))
            X = rng.normal(size=(n, dim))
            tree = agglomerate(X, cut=1)
            expected_merges, expected_cut = naive_linkage(X, cut=2)
            assert len(tree.merges) == len(expected_merges) == n - 1
            for merge, (left, right, height) in zip(tree.merges, expected_merges):
                got_left = frozenset(members(tree, merge.left))
                got_right = frozenset(members(tree, merge.right))
                assert (got_left, got_right) == (left, right)
                assert merge.height == pytest.approx(height, abs=1e-9)
            got_cut = set(cut_partition(agglomerate(X, cut=2)))
            assert got_cut == set(expected_cut)

    @staticmethod
    def tie_cases():
        """Inputs whose dissimilarities tie exactly: duplicate rows, small
        integer grids and equidistant points."""
        cases = [
            np.zeros((5, 2)),
            np.array([[0.0], [0.0], [1.0], [1.0], [3.0], [3.0], [3.0]]),
            np.array([[i, j] for i in range(3) for j in range(3)], dtype=np.float64),
            np.arange(6, dtype=np.float64)[:, None],
            # the corners of a unit square and its centre, each twice
            np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]] * 2, dtype=np.float64),
            # an equilateral triangle
            np.array([[0.0, 0.0], [2.0, 0.0], [1.0, np.sqrt(3.0)]]),
        ]
        rng = np.random.default_rng(0)
        for _ in range(100):
            n, d = int(rng.integers(3, 10)), int(rng.integers(1, 3))
            cases.append(rng.integers(0, 3, size=(n, d)).astype(np.float64))
        return cases

    @staticmethod
    def merged_sets(tree):
        return [
            (frozenset(members(tree, m.left)), frozenset(members(tree, m.right)))
            for m in tree.merges
        ]

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_ties_match_naive_reference(self, linkage):
        for X in self.tie_cases():
            n = len(X)
            tree = agglomerate(X, cut=1, linkage=linkage)
            expected_merges, expected_cut = naive_linkage(X, cut=2, linkage=linkage)
            assert len(tree.merges) == len(expected_merges) == n - 1
            expected = [(left, right) for left, right, _ in expected_merges]
            assert self.merged_sets(tree) == expected, X.tolist()
            heights = [m.height for m in tree.merges]
            assert heights == pytest.approx([h for _, _, h in expected_merges], abs=1e-9)
            assert set(cut_partition(agglomerate(X, cut=2, linkage=linkage))) == set(expected_cut)

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_tie_between_pairs_sharing_min_and_max_member(self, linkage):
        # 1-D points 1, 0, 2, 0, 1: after {1, 3} and {0, 4} form at height 0,
        # {0, 4} is at 1.0 from both {1, 3} and {2}, and either union spans
        # members 0..4; the larger of the two minima (1 < 2) picks {1, 3}
        X = np.array([[1.0], [0.0], [2.0], [0.0], [1.0]])
        tree = agglomerate(X, cut=1, linkage=linkage)
        expected, _ = naive_linkage(X, cut=1, linkage=linkage)
        assert self.merged_sets(tree) == [(left, right) for left, right, _ in expected]
        assert self.merged_sets(tree)[2] == (frozenset({0, 4}), frozenset({1, 3}))

    def test_exact_tie_break_prefers_smallest_ids(self):
        # 1-D points 0,1,10,11: both candidate pairs sit at exactly 1.0
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        tree = agglomerate(X, cut=2)
        first = tree.merges[0]
        assert set(members(tree, first.left)) | set(members(tree, first.right)) == {0, 1}

    def test_single_and_complete_linkage_match_reference(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(10, 2))
        for linkage in ("single", "complete"):
            tree = agglomerate(X, cut=1, linkage=linkage)
            expected, _ = naive_linkage(X, cut=1, linkage=linkage)
            assert len(tree.merges) == len(expected)
            for merge, (_, _, height) in zip(tree.merges, expected):
                assert merge.height == pytest.approx(height, abs=1e-9)


def jittered_copies(groups, copies, seed, d=10):
    """`groups` random rows, each repeated `copies` times and jittered by
    1e-9: most distances within a group round to exactly 0, so most of a
    group's slots tie at the minimum."""
    rng = np.random.default_rng(seed)
    X = np.repeat(rng.normal(size=(groups, d)), copies, axis=0)
    return X + 1e-9 * rng.normal(size=X.shape)


def compaction_cases():
    """Inputs large enough that the matrix is compacted several times
    (n >= 65 halves at least twice): random normals, small-integer grids
    whose dissimilarities tie exactly, and jittered copies whose slots tie
    many at a time."""
    for n in (65, 130, 300):
        rng = np.random.default_rng(n)
        yield pytest.param(rng.normal(size=(n, 4)), id=f"normal-{n}")
        yield pytest.param(rng.integers(0, 6, size=(n, 3)).astype(np.float64), id=f"grid-{n}")
    yield pytest.param(jittered_copies(4, 24, seed=96), id="jittered-copies-96")


class TestCompactedLinkage:
    """`agglomerate` compacts its matrix as clusters merge; the dense
    full-matrix loop is its exact oracle."""

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    @pytest.mark.parametrize("X", compaction_cases())
    def test_matches_dense_linkage_exactly(self, X, linkage):
        n = len(X)
        # rows regrouped into five seeded client blocks, as a cache lays them out
        clients = np.random.default_rng(n).integers(0, 5, size=n)
        X = X[np.argsort(clients, kind="stable")]
        for cut in (1, 2, n // 2, n // 2 + 1, n):
            tree = agglomerate(X, cut, linkage)
            expected = dense_linkage(X, cut, linkage)
            assert tree.n_leaves == expected.n_leaves == n
            assert len(tree.merges) == n - cut
            assert tree.merges == expected.merges  # heights included, bit for bit
            assert cut_partition(tree) == cut_partition(expected)
            assert len(cut_partition(tree)) == cut

    @pytest.mark.parametrize("n", [1, 2, 7, 256, 300, 513])
    def test_distances_match_textbook_formula_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 5))
        X[n // 2 :: 3] = X[0]  # duplicate rows sit at distance 0
        expected = reference_pairwise_distances(X)
        np.fill_diagonal(expected, np.inf)
        assert _pairwise_distances(X).tobytes() == expected.tobytes()

    def test_peak_memory_stays_near_one_matrix(self):
        n = 1500
        X = np.random.default_rng(0).normal(size=(n, 10))
        tracemalloc.start()
        try:
            agglomerate(X, cut=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} x 8 N^2 bytes"

    def test_cut_at_every_row_builds_no_matrix(self):
        n = 2000
        X = np.random.default_rng(0).normal(size=(n, 10))
        tracemalloc.start()
        try:
            tree = agglomerate(X, cut=n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tree.n_leaves, tree.merges) == (n, ())
        assert peak <= 16 * 8 * n, f"peak {peak} bytes"

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_workload_shaped_logits_match_dense_linkage(self, linkage):
        # 2398 rows like a 10-class synthetic run's cached logits: 10 Gaussian
        # blobs in 10-d, rows regrouped into 20 seeded client blocks
        rng = np.random.default_rng(2398)
        centres = 3.0 * rng.normal(size=(10, 10))
        X = centres[rng.integers(0, 10, size=2398)] + rng.normal(size=(2398, 10))
        X = X[np.argsort(rng.integers(0, 20, size=2398), kind="stable")]
        tree = agglomerate(X, 10, linkage)
        assert tree.merges == dense_linkage(X, 10, linkage).merges  # bit for bit


class TestMergesStopAtTheCut:
    """A tree cut at k clusters is the first n - k merges of the whole
    dendrogram, and its roots are exactly the k clusters left."""

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        d=st.integers(1, 3),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cut_tree_is_a_prefix_of_the_dendrogram(self, linkage, n, d, grid, seed):
        rng = np.random.default_rng(seed)
        # small integer grids tie often; normals almost never do
        X = rng.integers(0, 3, size=(n, d)).astype(np.float64) if grid else rng.normal(size=(n, d))
        whole = agglomerate(X, 1, linkage).merges
        assert len(whole) == n - 1
        for cut in range(1, n + 1):
            tree = agglomerate(X, cut, linkage)
            assert tree.n_leaves == n
            assert tree.merges == whole[: n - cut]
            parts = cut_partition(tree)
            assert len(parts) == cut
            assert sum(len(p) for p in parts) == n
            assert frozenset().union(*parts) == frozenset(range(n))


def merge_loop_cases():
    """Small inputs, each built to reach one path of the merge loop."""
    # 1.9 joins 1 first, so 5's bound stays 3.1, below its live minimum: when
    # the bound leads the pick, 5's row is read while the dead column still
    # holds 3.1, and the penalty must mask it
    yield pytest.param([[0.0], [1.0], [1.9], [5.0], [8.5]], id="stale-column-below-rescanned-min")
    # equal spacing: four or more rows hold the global minimum at once
    yield pytest.param([[float(x)] for x in range(6)], id="every-row-at-the-minimum")
    # duplicates: ties of three or more rows, with dead columns at the tied height
    yield pytest.param(
        [[2.0], [0.0], [1.0], [1.0], [1.0], [1.0], [0.0], [0.0], [0.0], [0.0]],
        id="tied-rows-beside-dead-columns-at-the-minimum",
    )
    # (0, 0) is 5 from (5, 0) and from both copies of (3, 4); once the copies
    # merge, its distance to them equals its old minimum
    yield pytest.param([[0.0, 0.0], [5.0, 0.0], [3.0, 4.0], [3.0, 4.0]], id="new-distance-equals-old-min")
    # the origin is m = sqrt(54) from the last four points but (9, 3, 3); once
    # (6, 3, 3) joins the first pair of them, (1*m + 2*m)/3 rounds below m, so
    # the origin's bound drops to the merged slot's distance while its old
    # nearest (-7, -2, -1) stays live at m; the merged slot then takes
    # (9, 3, 3), which lifts the origin's true minimum back to m, above its
    # bound
    yield pytest.param(
        [[0.0, 0.0, 0.0], [-7.0, -2.0, -1.0], [6.0, 3.0, 3.0], [7.0, 2.0, 1.0], [7.0, 1.0, 2.0], [9.0, 3.0, 3.0]],
        id="new-distance-rounds-below-old-min",
    )
    # {0, 5} is m = (sqrt(5) + sqrt(13))/2 from {1, 6} and from 4; once 4
    # joins {1, 6}, (2*m + 1*m)/3 rounds below m, and only a bound lowered to
    # it lets {0, 5}'s slot, the lower one, lead the next merge
    yield pytest.param(
        [[-2.0, -3.0], [0.0, -2.0], [-3.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [-3.0, -4.0], [0.0, -2.0], [-4.0, 3.0]],
        id="average-rounds-below-a-bound",
    )


class TestManyTiedSlots:
    """A tie is settled from one row, so copies that tie by the hundred
    cost O(tied slots) per merge, not a key per tied pair."""

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_512_jittered_copies_cluster_within_two_seconds(self, linkage):
        X = jittered_copies(4, 128, seed=512)
        start = time.perf_counter()
        tree = agglomerate(X, 4, linkage)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"{linkage} took {elapsed:.1f}s"
        groups = {frozenset(range(g * 128, (g + 1) * 128)) for g in range(4)}
        assert set(cut_partition(tree)) == groups


class TestMergeLoopPaths:
    """Dead slots' columns keep stale values under the penalty vector; each
    path that reads or skips them matches the dense loop bit for bit."""

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    @pytest.mark.parametrize("X", merge_loop_cases())
    def test_matches_dense_linkage_exactly(self, X, linkage):
        X = np.asarray(X)
        for cut in range(1, len(X) + 1):
            tree = agglomerate(X, cut, linkage)
            expected = dense_linkage(X, cut, linkage)
            assert len(tree.merges) == len(X) - cut
            assert tree.merges == expected.merges  # heights included, bit for bit
            assert cut_partition(tree) == cut_partition(expected)

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_small_integer_grids_match_dense_linkage(self, linkage, data):
        # small integer coordinates tie often, and at every cut
        d = data.draw(st.integers(1, 3))
        point = st.lists(st.integers(-4, 3), min_size=d, max_size=d)
        X = np.array(data.draw(st.lists(point, min_size=2, max_size=16)), dtype=np.float64)
        for cut in range(1, len(X) + 1):
            assert agglomerate(X, cut, linkage).merges == dense_linkage(X, cut, linkage).merges


class TestRejectsUnclusterableVectors:
    """Vectors whose distances are not finite floats end in InvalidInputError
    before any clustering."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row(self, bad):
        X = np.array([[0.0, 1.0], [2.0, bad], [1.0, 1.0], [3.0, 0.0]])
        with pytest.raises(InvalidInputError):
            agglomerate(X, cut=2)

    def test_non_finite_cached_logits(self):
        cache = make_cache([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]])
        with pytest.raises(InvalidInputError):
            build_hierarchy(cache, 2)

    def test_squared_distances_that_overflow(self):
        # 1e200 squared overflows: every distance to it would read inf
        X = np.array([[0.0], [1e200], [1.0], [2.0]])
        with pytest.raises(InvalidInputError):
            agglomerate(X, cut=2)


def path_clusters(tree, row):
    """Member sets along a row's path, singleton first, cut cluster last."""
    return [frozenset(members(tree, node)) for node in path_nodes(tree, row)]


class TestClusterPath(FourPoints):
    def test_four_point_path(self):
        _, tree = self.tree()
        sets = path_clusters(tree, 0)
        assert sets == [frozenset({0}), frozenset({0, 1})]

    def test_last_element_in_cut(self):
        _, tree = self.tree()
        cut = set(cut_partition(tree))
        for i in range(4):
            assert path_clusters(tree, i)[-1] in cut

    def test_strict_nesting(self):
        rng = np.random.default_rng(10)
        cache = make_cache(rng.normal(size=(16, 2)))
        tree = build_hierarchy(cache, 2)
        for i in range(16):
            chain = path_clusters(tree, i)
            assert chain[0] == frozenset({i})
            for small, big in zip(chain, chain[1:]):
                assert small < big

    def test_unknown_leaf(self):
        _, tree = self.tree()
        with pytest.raises(KeyError):
            path_nodes(tree, 9)

    def test_single_merge_before_cut_gives_length_two(self):
        _, tree = self.tree()
        assert len(path_nodes(tree, 2)) == 2


T = 3.0


def assert_same_table(got, want):
    for field in ("q", "h", "has"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def teacher_rows(padded, row):
    """The valid teacher logits that padded (logits, mask) give cache row `row`."""
    logits, mask = padded
    return list(logits[row][mask[row]])


def path_teachers(cache, tree, granularity, exclude_self=True):
    """The padded oracle's (logits, mask), once `fetch_teacher`'s table has
    been checked, bit for bit, against the oracle's."""
    padded = padded_path_teachers(cache, tree, granularity, exclude_self)
    got = fetch_teacher(cache, tree, granularity, T, exclude_self)
    assert_same_table(got, reference_teacher_table(*padded, T))
    return padded


def path_teacher_rows(cache, tree, row, granularity, exclude_self=True):
    return teacher_rows(path_teachers(cache, tree, granularity, exclude_self), row)


def feddistill_teachers(cache):
    """The per-sample feddistill oracle padded to (n, 1, C), once
    `feddistill_teacher`'s table has been checked against it bit for bit."""
    entries = [feddistill_class_teacher(cache, row) for row in range(len(cache))]
    padded = padded_lists(entries, cache.logits.shape[1])
    assert_same_table(feddistill_teacher(cache, T), reference_teacher_table(*padded, T))
    return padded


def fedcache_teachers(cache, neighbours):
    """The per-sample fedcache oracle padded to (n, 1, C), once
    `fedcache_teacher`'s table has been checked against it bit for bit."""
    entries = [neighbour_teacher(cache, row) for row in neighbours]
    padded = padded_lists(entries, cache.logits.shape[1])
    assert_same_table(fedcache_teacher(cache, neighbours, T), reference_teacher_table(*padded, T))
    return padded


class TestFetchTeacher(FourPoints):
    def test_singleton_path_bottom_unavailable(self):
        # three points, cut at 2: the far point stays a singleton
        cache = make_cache([0.0, 0.1, 10.0])
        tree = build_hierarchy(cache, 2)
        assert path_teacher_rows(cache, tree, 2, Granularity.BOTTOM) == []

    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_singleton_cut_cluster_has_no_teacher_without_self(self, granularity):
        cache = make_cache([0.0, 0.1, 10.0])
        tree = build_hierarchy(cache, 2)
        assert path_teacher_rows(cache, tree, 2, granularity, exclude_self=True) == []

    def test_singleton_cut_cluster_top_with_self_is_own_logits(self):
        cache = make_cache([0.0, 0.1, 10.0])
        tree = build_hierarchy(cache, 2)
        out = path_teacher_rows(cache, tree, 2, Granularity.TOP, exclude_self=False)
        np.testing.assert_allclose(out, [[10.0]])

    def test_top_aggregates_cut_cluster_excluding_self(self):
        cache, tree = self.tree()
        out = path_teacher_rows(cache, tree, 0, Granularity.TOP, exclude_self=True)
        assert len(out) == 1
        np.testing.assert_allclose(out[0], [0.1])

    def test_top_without_exclusion_is_cluster_mean(self):
        cache, tree = self.tree()
        out = path_teacher_rows(cache, tree, 0, Granularity.TOP, exclude_self=False)
        np.testing.assert_allclose(out[0], [0.05])

    def test_top_identical_across_cluster_without_exclusion(self):
        cache, tree = self.tree()
        a = path_teacher_rows(cache, tree, 0, Granularity.TOP, exclude_self=False)
        b = path_teacher_rows(cache, tree, 1, Granularity.TOP, exclude_self=False)
        np.testing.assert_allclose(a[0], b[0])

    def chain_tree(self):
        # 1-D points 0,1,4,16 merge as ({0,1}), ({0,1},4), (.,16); cut at 1
        cache = make_cache([0.0, 1.0, 4.0, 16.0])
        return cache, build_hierarchy(cache, 1)

    def test_all_on_length_three_path_yields_two_entries(self):
        cache, tree = self.chain_tree()
        out = path_teacher_rows(cache, tree, 2, Granularity.ALL, exclude_self=False)
        assert len(out) == 2
        np.testing.assert_allclose(out[0], [(0.0 + 1.0 + 4.0) / 3])
        np.testing.assert_allclose(out[1], [(0.0 + 1.0 + 4.0 + 16.0) / 4])

    def test_middle_of_length_four_path(self):
        cache, tree = self.chain_tree()
        # leaf 0 path: {0} < {0,1} < {0,1,4} < {0,1,4,16}; middle = ceil(5/2) = 3rd
        out = path_teacher_rows(cache, tree, 0, Granularity.MIDDLE, exclude_self=False)
        np.testing.assert_allclose(out[0], [(0.0 + 1.0 + 4.0) / 3])

    def test_bottom_is_first_merge(self):
        cache, tree = self.chain_tree()
        out = path_teacher_rows(cache, tree, 0, Granularity.BOTTOM, exclude_self=True)
        np.testing.assert_allclose(out[0], [1.0])

    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_tree_without_merges(self, granularity):
        # cut == n: every leaf is a root, so every path is its singleton alone
        # and the path walk pads with -1 from its first step
        cache = make_cache(self.values)
        tree = build_hierarchy(cache, len(self.values))
        assert tree.merges == ()
        _, mask = path_teachers(cache, tree, granularity, exclude_self=True)
        assert not mask.any()
        logits, mask = path_teachers(cache, tree, granularity, exclude_self=False)
        if granularity is Granularity.TOP:
            assert mask.all()
            np.testing.assert_array_equal(logits[:, 0], cache.logits)
        else:
            assert not mask.any()

    def test_stale_tree_for_new_sample(self):
        # the cache holds a row the tree was built without: fewer leaves than rows
        _, tree = self.tree()
        with pytest.raises(InvalidInputError, match="cluster tree has 4 leaves, the cache 5 rows"):
            fetch_teacher(make_cache(self.values + [1.0]), tree, Granularity.TOP, T)

    def test_unknown_sample(self):
        # the tree holds a leaf this cache has no row for: more leaves than rows
        _, tree = self.tree()
        with pytest.raises(InvalidInputError, match="cluster tree has 4 leaves, the cache 3 rows"):
            fetch_teacher(make_cache(self.values[:3]), tree, Granularity.TOP, T)

    def test_one_row_per_cache_row(self):
        cache = make_cache([0.0, 0.1, 10.0, 10.1, 5.0], clients=[0, 0, 1, 1, 2])
        table = fetch_teacher(cache, build_hierarchy(cache, 2), Granularity.ALL, T)
        assert (table.q.shape, table.h.shape, table.has.shape) == ((5, 1), (5,), (5,))

    def test_zero_size_client_takes_no_rows(self):
        cache = make_cache([0.0, 0.1, 10.0, 10.1], clients=[0, 0, 2, 2])
        teachers = path_teachers(cache, build_hierarchy(cache, 2), Granularity.TOP)
        assert len(teachers[0]) == len(teachers[1]) == 4
        np.testing.assert_allclose(teacher_rows(teachers, 2), [[10.1]])


def nested_logits(rng, n_classes=10):
    """2048 logit rows in 8 clusters of 4 of 8 groups of 8 rows, each level
    100 times wider than the one below, so every linkage's paths stay short
    (at most about 20 nodes) while the tree has 2048 leaves."""
    return sum(
        rng.normal(scale=scale, size=(2048 // repeat, n_classes)).repeat(repeat, axis=0)
        for scale, repeat in ((1.0, 256), (1e-2, 64), (1e-4, 8), (1e-6, 1))
    )


@pytest.fixture(scope="module")
def large_trees():
    """One 2048-leaf cache over 8 clients and its tree for each linkage."""
    cache = cache_from_rows([256] * 8, nested_logits(np.random.default_rng(21)))
    linkages = ("average", "single", "complete")
    return cache, {linkage: build_hierarchy(cache, 10, linkage) for linkage in linkages}


@pytest.fixture(scope="module")
def blob_tree():
    """A 2398-row cache of 10 Gaussian blobs in 10-d over 20 client blocks,
    and its average-linkage tree cut at 10."""
    n = 2398
    rng = np.random.default_rng(0)
    centers = rng.normal(scale=3.0, size=(10, 10))
    X = centers[np.arange(n) % 10] + rng.normal(size=(n, 10))
    cache = cache_from_rows(np.diff(np.linspace(0, n, 21).astype(int)).tolist(), X)
    return cache, build_hierarchy(cache, 10)


class TestBuildersMatchPaddedOracle:
    """Every builder's table equals, bit for bit, the one that
    `reference_teacher_table` softens from the padded (n, D, C) teacher
    logits of the same means: the level-by-level softening keeps q's
    in-order sum over levels and h's one reduction over the (n, D) array."""

    @pytest.mark.parametrize("exclude_self", [True, False])
    @pytest.mark.parametrize("granularity", list(Granularity))
    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_large_tree(self, large_trees, linkage, granularity, exclude_self):
        cache, trees = large_trees
        logits, mask = path_teachers(cache, trees[linkage], granularity, exclude_self)
        if granularity is Granularity.ALL:
            assert mask.shape[1] > 8  # paths long enough for pairwise sums of h
        assert mask.any(axis=1).mean() > 0.9

    @pytest.mark.parametrize("exclude_self", [True, False])
    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_workload_depth(self, blob_tree, granularity, exclude_self):
        # the hks-scaled shape: most paths end well above the deepest level,
        # which few rows reach
        cache, tree = blob_tree
        logits, mask = path_teachers(cache, tree, granularity, exclude_self)
        assert logits.nbytes <= 50e6
        if granularity is Granularity.ALL:
            assert mask.shape[1] > 20 and mask[:, -1].sum() < len(cache) // 100

    @pytest.mark.parametrize("exclude_self", [True, False])
    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_single_linkage_chain(self, granularity, exclude_self):
        # a chain: paths run from a few levels to over two hundred, and only
        # a few rows reach the deepest ones
        n = 400
        cache = cache_from_rows([n // 8] * 8, np.random.default_rng(0).normal(size=(n, 10)))
        tree = build_hierarchy(cache, 10, linkage="single")
        logits, mask = path_teachers(cache, tree, granularity, exclude_self)
        if granularity is Granularity.ALL:
            assert mask.shape[1] > 200 and mask[:, -1].sum() < n // 20

    @pytest.mark.parametrize("exclude_self", [True, False])
    @pytest.mark.parametrize("granularity", list(Granularity))
    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_trees(self, seed, linkage, granularity, exclude_self):
        n = 30 + 7 * seed
        X = tie_heavy_points(n, 3, seed)
        clients = sorted(np.random.default_rng(seed).integers(0, 4, size=n).tolist())
        cache = make_cache(X, clients=clients)
        for cut in (1, 3, n // 2):
            path_teachers(cache, build_hierarchy(cache, cut, linkage=linkage), granularity, exclude_self)

    @pytest.mark.parametrize("seed", range(6))
    def test_feddistill(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        clients = sorted(rng.integers(0, 5, size=n).tolist())
        # class 3 is held by the first client alone, so its rows have no teacher
        labels = rng.integers(0, 3, size=n)
        labels[np.asarray(clients) == clients[0]] = 3
        cache = make_cache(rng.normal(scale=4.0, size=(n, 4)), clients=clients, labels=labels.tolist())
        _, mask = feddistill_teachers(cache)
        assert mask.any() and not mask.all()

    @pytest.mark.parametrize("seed", range(6))
    def test_fedcache(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        clients = sorted(rng.integers(0, 5, size=n).tolist())
        labels = rng.integers(0, 3, size=n)
        cache = make_cache(rng.normal(scale=4.0, size=(n, 4)), clients=clients, labels=labels.tolist())
        hashes = rng.integers(-1, 2, size=(n, 2)).astype(np.float64)
        for R in (1, 4, np.bincount(labels).max(), n + 3):
            fedcache_teachers(cache, fedcache_neighbors(cache, hashes, R))


class TestFetchTeacherMemory:
    def test_single_linkage_chain_stays_level_by_level(self):
        # single linkage over random normals chains: the longest of these
        # paths has over a thousand nodes, so an (n, D, C) block of teacher
        # logits would take hundreds of MB
        n = 2398
        cache = make_cache(np.random.default_rng(0).normal(size=(n, 10)))
        tree = build_hierarchy(cache, 10, linkage="single")
        depth = np.zeros(n + len(tree.merges), dtype=np.int64)
        for node in range(len(depth) - 1, n - 1, -1):
            merge = tree.merges[node - n]
            depth[merge.left] = depth[merge.right] = depth[node] + 1
        assert depth[:n].max() > 1000
        tracemalloc.start()
        try:
            table = fetch_teacher(cache, tree, Granularity.ALL, T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 200e6, f"peak {peak / 1e6:.0f} MB"
        assert table.has.mean() > 0.99


class TestFedDistillTeacher:
    def test_single_foreign_holder(self):
        cache = make_cache([[9.0, 9.0], [1.0, 2.0]], clients=[0, 1], labels=[0, 0])
        np.testing.assert_allclose(teacher_rows(feddistill_teachers(cache), 0), [[1.0, 2.0]])

    def test_only_requester_holds_class(self):
        cache = make_cache([[1.0, 2.0]], clients=[0], labels=[0])
        assert teacher_rows(feddistill_teachers(cache), 0) == []

    def test_mean_of_two_foreign_records(self):
        cache = make_cache([[5.0, 5.0], [0.0, 2.0], [2.0, 0.0]], clients=[0, 1, 2], labels=[0, 0, 0])
        np.testing.assert_allclose(teacher_rows(feddistill_teachers(cache), 0), [[1.0, 1.0]])

    def test_other_classes_are_ignored(self):
        cache = make_cache([[4.0, 4.0], [1.0, 2.0], [9.0, 9.0]], clients=[0, 1, 1], labels=[0, 0, 1])
        np.testing.assert_allclose(teacher_rows(feddistill_teachers(cache), 0), [[1.0, 2.0]])

    def test_mode_error_without_labels(self):
        cache = make_cache([[1.0]])
        with pytest.raises(InvalidInputError, match="cache stores no labels"):
            feddistill_teacher(cache, T)


def fedcache_query_teacher(cache, hashes, row, R):
    """A row's fedcache teacher from a fresh neighbour search, or None."""
    neighbours = fedcache_neighbors(cache, hashes, R)
    rows = teacher_rows(fedcache_teachers(cache, neighbours), row)
    return rows[0] if rows else None


class TestFedCacheTeacher:
    # three same-class foreign neighbours at distances 1, 2, 9 from row 0
    HASHES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [9.0, 0.0]])

    def crafted(self):
        logits = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [100.0, 100.0]])
        return cache_from_rows([1, 1, 1, 1], logits, labels=[0, 0, 0, 0])

    def test_r1_single_foreign(self):
        cache = self.crafted()
        out = fedcache_query_teacher(cache, self.HASHES, 0, R=1)
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_r2_means_two_closest_matching_exact_knn(self):
        cache = self.crafted()
        expected_rows = exact_knn(
            self.HASHES, self.HASHES[0], 2, lambda row: cache.owner[row] != 0 and cache.labels[row] == 0
        )
        assert expected_rows == [1, 2]
        assert fedcache_neighbors(cache, self.HASHES, 2)[0].tolist() == [1, 2]
        np.testing.assert_allclose(fedcache_query_teacher(cache, self.HASHES, 0, R=2), [2.0, 2.0])

    def test_r_beyond_population_means_everything_foreign(self):
        cache = self.crafted()
        # a row has at most one neighbour per cache row, so the table has 4 columns
        assert fedcache_neighbors(cache, self.HASHES, 5)[0].tolist() == [1, 2, 3, -1]
        out = fedcache_query_teacher(cache, self.HASHES, 0, R=50)
        np.testing.assert_allclose(out, np.mean([[1.0, 1.0], [3.0, 3.0], [100.0, 100.0]], axis=0))

    def test_r_beyond_the_cache_size_gives_the_table_of_r_equal_to_it(self):
        cache = self.crafted()
        n = len(cache)
        exact = fedcache_neighbors(cache, self.HASHES, n)
        beyond = fedcache_neighbors(cache, self.HASHES, n + 3)
        np.testing.assert_array_equal(beyond, exact)
        assert_same_table(fedcache_teacher(cache, beyond, T), fedcache_teacher(cache, exact, T))

    def test_table_width_is_the_largest_class(self):
        # classes of 3, 2 and 1 rows: no row has more than 3 neighbours,
        # however large R is, and the dropped columns only padded
        rng = np.random.default_rng(4)
        cache = cache_from_rows([2, 2, 2], rng.normal(size=(6, 3)), labels=[0, 1, 0, 2, 1, 0])
        hashes = rng.normal(size=(6, 2))
        n = len(cache)
        table = fedcache_neighbors(cache, hashes, n + 3)
        assert table.shape == (n, 3)
        assert table[0].tolist() == [2, 5, -1]
        padded = np.full((n, n), -1, dtype=np.int64)
        padded[:, :3] = table
        assert_same_table(fedcache_teacher(cache, table, T), fedcache_teacher(cache, padded, T))

    def test_equal_distances_go_to_the_lower_row(self):
        # every hash is equal, so each row's neighbours are the other rows in row order
        cache = cache_from_rows([2, 1, 2], np.zeros((5, 2)), labels=[0] * 5)
        table = fedcache_neighbors(cache, np.ones((5, 3)), 5)
        assert table.tolist() == [
            [2, 3, 4, -1, -1],
            [2, 3, 4, -1, -1],
            [0, 1, 3, 4, -1],
            [0, 1, 2, -1, -1],
            [0, 1, 2, -1, -1],
        ]

    @pytest.mark.parametrize("n_hashes", [3, 5])
    def test_hashes_with_the_wrong_row_count_rejected(self, n_hashes):
        # row i of the hashes is cache row i, so a wrong count is never cut to fit
        cache = self.crafted()
        hashes = np.resize(self.HASHES, (n_hashes, 2))
        with pytest.raises(InvalidInputError, match=r"hashes must have 4 rows of d_hash"):
            fedcache_neighbors(cache, hashes, 2)
        assert cache.label_reads == 0

    def test_hashes_that_are_not_a_table_rejected(self):
        cache = self.crafted()
        with pytest.raises(InvalidInputError, match=r"hashes must have 4 rows of d_hash"):
            fedcache_neighbors(cache, self.HASHES[:, 0], 2)
        assert cache.label_reads == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_hash_rejected(self, value):
        cache = self.crafted()
        hashes = self.HASHES.copy()
        hashes[2, 1] = value
        with pytest.raises(InvalidInputError, match="finite"):
            fedcache_neighbors(cache, hashes, 2)
        assert cache.label_reads == 0

    def test_r_below_one_rejected(self):
        cache = self.crafted()
        with pytest.raises(InvalidInputError):
            fedcache_neighbors(cache, self.HASHES, 0)
        assert cache.label_reads == 0

    def test_each_label_read_once(self):
        cache = self.crafted()
        fedcache_neighbors(cache, self.HASHES, 2)
        assert cache.label_reads == len(cache)

    def test_unavailable_when_no_foreign_same_class(self):
        cache = cache_from_rows([1], [[0.5, 0.5]], labels=[1])
        hashes = np.array([[1.0, 0.0]])
        assert fedcache_query_teacher(cache, hashes, 0, R=3) is None

    def test_mode_error_without_labels(self):
        cache = make_cache([[1.0, 0.0]])
        hashes = np.array([[1.0, 0.0]])
        with pytest.raises(InvalidInputError, match="cache stores no labels"):
            fedcache_query_teacher(cache, hashes, 0, R=1)

    def test_teacher_reads_current_logits_of_stored_neighbours(self):
        cache = self.crafted()
        neighbours = fedcache_neighbors(cache, self.HASHES, 2)
        logits = cache.logits.copy()
        logits[1] = [5.0, 7.0]
        cache.update_logits(logits)
        teachers = fedcache_teachers(cache, neighbours)
        np.testing.assert_allclose(teacher_rows(teachers, 0), [[4.0, 5.0]])

    def test_no_neighbours_means_no_teacher(self):
        cache = self.crafted()
        teachers = fedcache_teachers(cache, np.full((4, 2), -1))
        assert all(teacher_rows(teachers, row) == [] for row in range(4))


class TestFedCacheNeighboursMatchExactKnn:
    def tie_heavy(self, seed, kind):
        """A cache of 4 clients (some may be empty) and hashes with many
        equal distances: a few repeated vectors, or points of a small
        integer grid. Class 3 is held by one client only, so its rows have
        no foreign member."""
        rng = np.random.default_rng(seed)
        sizes = rng.integers(0, 7, size=4)
        sizes[seed % 4] += 2
        n = int(sizes.sum())
        labels = rng.integers(0, 3, size=n)
        labels[: sizes[0]] = 3
        if kind == "duplicates":
            hashes = rng.normal(size=(3, 4))[rng.integers(0, 3, size=n)]
        else:
            hashes = rng.integers(-1, 2, size=(n, 2)).astype(np.float64)
        return cache_from_rows(sizes.tolist(), np.zeros((n, 2)), labels=labels), hashes

    @pytest.mark.parametrize("block_elements", [1, 7, None])
    @pytest.mark.parametrize("kind", ["duplicates", "grid"])
    @pytest.mark.parametrize("seed", range(8))
    def test_every_row_equals_exact_knn(self, seed, kind, block_elements, monkeypatch):
        if block_elements is not None:
            # blocks of one or a few rows, not the whole class
            monkeypatch.setattr(teachers, "_BLOCK_ELEMENTS", block_elements)
        cache, hashes = self.tie_heavy(seed, kind)
        n = len(cache)
        for R in sorted({1, 2, n, n + 3}):
            table = fedcache_neighbors(cache, hashes, R)
            np.testing.assert_array_equal(table, exact_neighbour_table(cache, hashes, R), err_msg=str(R))
            # a row has no more neighbours than the largest class holds
            width = min(R, np.bincount(cache.labels).max())
            assert table.shape == (n, width) and table.dtype == np.int64
            assert (table[cache.labels == 3] == -1).all()
