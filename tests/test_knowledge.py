import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hks.errors import (
    DegenerateInputError,
    InsufficientDataError,
    InvalidInputError,
    ModeError,
    ShapeError,
    StaleHierarchyError,
)
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
from hks.knowledge.hierarchy import _pairwise_distances
from hks.numerics import teacher_table

from reference_oracles import (
    cache_from_rows,
    cut_partition,
    dense_linkage,
    exact_knn,
    knn_by_sorting,
    members,
    naive_linkage,
    path_nodes,
    ReferenceHnsw,
    path_teacher,
    reference_pairwise_distances,
    softmax_rows,
    table_from_lists,
)


def make_cache(points, clients=None, labels=None, round_index=0):
    """Cache of one uploaded row per point, row i held by client clients[i]
    (nondecreasing; all client 0 by default)."""
    points = np.asarray(points, dtype=np.float64).reshape(len(points), -1)
    clients = [0] * len(points) if clients is None else clients
    assert clients == sorted(clients), "rows run client by client"
    sizes = np.bincount(clients).tolist()
    return cache_from_rows(sizes, points, labels=labels, round_index=round_index)


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
        with pytest.raises(ShapeError):
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
        cache.update_logits(np.array([[5.0, 6.0], [7.0, 8.0]]), round_index=3)
        np.testing.assert_array_equal(cache.logits, [[5.0, 6.0], [7.0, 8.0]])
        assert cache.round == 3

    def test_last_update_wins(self):
        cache = make_cache([[0.0]])
        cache.update_logits(np.array([[1.0]]), 1)
        cache.update_logits(np.array([[2.0]]), 2)
        np.testing.assert_array_equal(cache.logits[0], [2.0])
        assert cache.round == 2

    def test_label_free_mode_has_no_labels(self):
        cache = make_cache([[1.0], [2.0]])
        assert cache.labels is None
        with pytest.raises(ModeError):
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
        with pytest.raises(ShapeError):
            KnowledgeCache([1, 2], 2, **{column: values})

    def test_rows_wait_for_their_first_upload(self):
        cache = KnowledgeCache([1, 1], 3)
        assert cache.round == -1
        assert cache.logits.shape == (2, 3)
        assert cache.labels is None

    @pytest.mark.parametrize(
        "shape", [(1, 2), (2, 2), (4, 2), (3, 1), (3, 3), (2, 3), (3,), (6,), (3, 2, 1), ()]
    )
    def test_block_of_the_wrong_shape_rejected(self, shape):
        # one upload covers every row of every client, zero-size ones included
        logits = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        cache = cache_from_rows([2, 0, 1], logits)
        with pytest.raises(ShapeError):
            cache.update_logits(np.zeros(shape), 1)
        assert cache.round == 0
        np.testing.assert_array_equal(cache.logits, logits)

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


def compaction_cases():
    """Inputs large enough that the matrix is compacted several times
    (n >= 65 halves at least twice): random normals, and small-integer grids
    whose dissimilarities tie exactly."""
    for n in (65, 130, 300):
        rng = np.random.default_rng(n)
        yield pytest.param(rng.normal(size=(n, 4)), id=f"normal-{n}")
        yield pytest.param(rng.integers(0, 6, size=(n, 3)).astype(np.float64), id=f"grid-{n}")


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
        assert peak <= 1.4 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} x 8 N^2 bytes"


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
    # 1.9 joins 1 first, so 5's nearest slot dies into a farther one: its row
    # is rescanned while the dead column still holds its smallest value, 3.1
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
    # the origin's nearest slot becomes the merged one while its old nearest
    # (-7, -2, -1) stays live; that slot then takes (9, 3, 3) and the origin's
    # row must be rescanned
    yield pytest.param(
        [[0.0, 0.0, 0.0], [-7.0, -2.0, -1.0], [6.0, 3.0, 3.0], [7.0, 2.0, 1.0], [7.0, 1.0, 2.0], [9.0, 3.0, 3.0]],
        id="new-distance-rounds-below-old-min",
    )


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


def teacher_rows(teachers, row):
    """The valid teacher logits a builder's (logits, mask) give cache row `row`."""
    logits, mask = teachers
    return list(logits[row][mask[row]])


def path_teacher_rows(cache, tree, row, granularity, exclude_self=True):
    teachers = fetch_teacher(cache, tree, granularity, exclude_self=exclude_self)
    return teacher_rows(teachers, row)


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
        _, mask = fetch_teacher(cache, tree, granularity, exclude_self=True)
        assert not mask.any()
        logits, mask = fetch_teacher(cache, tree, granularity, exclude_self=False)
        if granularity is Granularity.TOP:
            assert mask.all()
            np.testing.assert_array_equal(logits[:, 0], cache.logits)
        else:
            assert not mask.any()

    def test_stale_tree_for_new_sample(self):
        # the cache holds a row the tree was built without: fewer leaves than rows
        _, tree = self.tree()
        with pytest.raises(StaleHierarchyError):
            fetch_teacher(make_cache(self.values + [1.0]), tree, Granularity.TOP)

    def test_unknown_sample(self):
        # the tree holds a leaf this cache has no row for: more leaves than rows
        _, tree = self.tree()
        with pytest.raises(StaleHierarchyError):
            fetch_teacher(make_cache(self.values[:3]), tree, Granularity.TOP)

    def test_one_row_per_cache_row(self):
        cache = make_cache([0.0, 0.1, 10.0, 10.1, 5.0], clients=[0, 0, 1, 1, 2])
        logits, mask = fetch_teacher(cache, build_hierarchy(cache, 2), Granularity.ALL)
        assert logits.shape[:2] == mask.shape
        assert (len(logits), logits.shape[2]) == (5, 1)

    def test_zero_size_client_takes_no_rows(self):
        cache = make_cache([0.0, 0.1, 10.0, 10.1], clients=[0, 0, 2, 2])
        teachers = fetch_teacher(cache, build_hierarchy(cache, 2), Granularity.TOP)
        assert len(teachers[0]) == len(teachers[1]) == 4
        np.testing.assert_allclose(teacher_rows(teachers, 2), [[10.1]])


class TestSoftClusterSpace:
    def test_teachers_average_raw_logits_not_clustered_probabilities(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(scale=3.0, size=(24, 4))
        cache = make_cache(logits)
        tree = build_hierarchy(cache, 3, space="soft", temperature=3.0)
        table = teacher_table(*fetch_teacher(cache, tree, Granularity.ALL), 3.0)
        q, h = table.q, table.h
        raw = [path_teacher(cache, tree, row, Granularity.ALL) for row in range(len(cache))]
        expected = table_from_lists(raw, 4, 3.0)
        np.testing.assert_allclose(q, expected.q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(h, expected.h, rtol=0, atol=1e-12)
        # softening the mean clustered probabilities again gives far flatter targets
        probs = make_cache(softmax_rows(logits, 3.0))
        soft = [path_teacher(probs, tree, row, Granularity.ALL) for row in range(len(cache))]
        assert np.abs(table_from_lists(soft, 4, 3.0).q - q).max() > 0.1


class TestFedDistillTeacher:
    def test_single_foreign_holder(self):
        cache = make_cache([[9.0, 9.0], [1.0, 2.0]], clients=[0, 1], labels=[0, 0])
        np.testing.assert_allclose(teacher_rows(feddistill_teacher(cache), 0), [[1.0, 2.0]])

    def test_only_requester_holds_class(self):
        cache = make_cache([[1.0, 2.0]], clients=[0], labels=[0])
        assert teacher_rows(feddistill_teacher(cache), 0) == []

    def test_mean_of_two_foreign_records(self):
        cache = make_cache([[5.0, 5.0], [0.0, 2.0], [2.0, 0.0]], clients=[0, 1, 2], labels=[0, 0, 0])
        np.testing.assert_allclose(teacher_rows(feddistill_teacher(cache), 0), [[1.0, 1.0]])

    def test_other_classes_are_ignored(self):
        cache = make_cache([[4.0, 4.0], [1.0, 2.0], [9.0, 9.0]], clients=[0, 1, 1], labels=[0, 0, 1])
        np.testing.assert_allclose(teacher_rows(feddistill_teacher(cache), 0), [[1.0, 2.0]])

    def test_mode_error_without_labels(self):
        cache = make_cache([[1.0]])
        with pytest.raises(ModeError):
            feddistill_teacher(cache)


def index_rows(hashes):
    """HNSW index over the hashes, node i for row i, as the federation
    builds it over its cache rows."""
    index = HnswIndex(hashes.shape[1], seed=0)
    for h in hashes:
        index.insert(h)
    return index


def fedcache_query_teacher(cache, index, hashes, row, R):
    """A row's fedcache teacher from a fresh neighbour query, or None."""
    neighbours = fedcache_neighbors(cache, index, hashes, R)
    rows = teacher_rows(fedcache_teacher(cache, neighbours), row)
    return rows[0] if rows else None


class TestFedCacheTeacher:
    # three same-class foreign neighbours at distances 1, 2, 9 from row 0
    HASHES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [9.0, 0.0]])

    def crafted(self):
        logits = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [100.0, 100.0]])
        cache = cache_from_rows([1, 1, 1, 1], logits, labels=[0, 0, 0, 0])
        return cache, index_rows(self.HASHES)

    def test_r1_single_foreign(self):
        cache, index = self.crafted()
        out = fedcache_query_teacher(cache, index, self.HASHES, 0, R=1)
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_r2_means_two_closest_matching_exact_knn(self):
        cache, index = self.crafted()
        expected_rows = exact_knn(
            self.HASHES, self.HASHES[0], 2, lambda row: cache.owner[row] != 0 and cache.labels[row] == 0
        )
        assert expected_rows == [1, 2]
        assert fedcache_neighbors(cache, index, self.HASHES, 2)[0].tolist() == [1, 2]
        np.testing.assert_allclose(fedcache_query_teacher(cache, index, self.HASHES, 0, R=2), [2.0, 2.0])

    def test_r_beyond_population_means_everything_foreign(self):
        cache, index = self.crafted()
        assert fedcache_neighbors(cache, index, self.HASHES, 5)[0].tolist() == [1, 2, 3, -1, -1]
        out = fedcache_query_teacher(cache, index, self.HASHES, 0, R=50)
        np.testing.assert_allclose(out, np.mean([[1.0, 1.0], [3.0, 3.0], [100.0, 100.0]], axis=0))

    @pytest.mark.parametrize("n_hashes", [3, 5])
    def test_hashes_with_the_wrong_row_count_rejected(self, n_hashes):
        # row i of the hashes is cache row i, so a wrong count is never cut to fit
        cache, index = self.crafted()
        hashes = np.resize(self.HASHES, (n_hashes, 2))
        with pytest.raises(ShapeError):
            fedcache_neighbors(cache, index, hashes, 2)
        assert cache.label_reads == 0

    def test_unavailable_when_no_foreign_same_class(self):
        cache = cache_from_rows([1], [[0.5, 0.5]], labels=[1])
        hashes = np.array([[1.0, 0.0]])
        assert fedcache_query_teacher(cache, index_rows(hashes), hashes, 0, R=3) is None

    def test_mode_error_without_labels(self):
        cache = make_cache([[1.0, 0.0]])
        hashes = np.array([[1.0, 0.0]])
        with pytest.raises(ModeError):
            fedcache_query_teacher(cache, index_rows(hashes), hashes, 0, R=1)

    def test_teacher_reads_current_logits_of_stored_neighbours(self):
        cache, index = self.crafted()
        neighbours = fedcache_neighbors(cache, index, self.HASHES, 2)
        logits = cache.logits.copy()
        logits[1] = [5.0, 7.0]
        cache.update_logits(logits, 1)
        teachers = fedcache_teacher(cache, neighbours)
        np.testing.assert_allclose(teacher_rows(teachers, 0), [[4.0, 5.0]])

    def test_no_neighbours_means_no_teacher(self):
        cache, _ = self.crafted()
        teachers = fedcache_teacher(cache, np.full((4, 2), -1))
        assert all(teacher_rows(teachers, row) == [] for row in range(4))
