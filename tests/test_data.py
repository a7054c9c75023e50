import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hks.data import (
    Dataset,
    dirichlet_partition,
    epoch_order,
    load_idx,
    split_local_test,
    stratified_subsample,
    synth_blobs,
    synth_train_and_test,
)
from hks.errors import (
    ConsistencyError,
    EmptyShardError,
    FormatError,
    InfeasiblePartitionError,
    InvalidInputError,
    TruncatedFileError,
)

from reference_oracles import (
    reference_epoch_order,
    reference_split_local_test,
    reference_synth_blobs,
    reference_synth_train_and_test,
    write_idx,
)


def idx_fixture_bytes():
    """Two 2x2 images with pixels [0,255,0,255 | 255,0,255,0], labels [1,0]."""
    images = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes([0, 255, 0, 255, 255, 0, 255, 0])
    labels = struct.pack(">II", 0x00000801, 2) + bytes([1, 0])
    return images, labels


def write_pair(tmp_path, images, labels, gz=False):
    if gz:
        ip, lp = tmp_path / "img.idx.gz", tmp_path / "lab.idx.gz"
        ip.write_bytes(gzip.compress(images))
        lp.write_bytes(gzip.compress(labels))
    else:
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        ip.write_bytes(images)
        lp.write_bytes(labels)
    return ip, lp


class TestLoadIdx:
    def test_crafted_fixture(self, tmp_path):
        ip, lp = write_pair(tmp_path, *idx_fixture_bytes())
        ds = load_idx(ip, lp)
        np.testing.assert_allclose(ds.features, [[0, 1, 0, 1], [1, 0, 1, 0]])
        np.testing.assert_array_equal(ds.labels, [1, 0])
        assert ds.input_dim == 4

    def test_gzip_transparent(self, tmp_path):
        ip, lp = write_pair(tmp_path, *idx_fixture_bytes(), gz=True)
        ds = load_idx(ip, lp)
        assert len(ds) == 2

    def test_wrong_magic(self, tmp_path):
        images, labels = idx_fixture_bytes()
        bad = struct.pack(">I", 0x00000802) + images[4:]
        ip, lp = write_pair(tmp_path, bad, labels)
        with pytest.raises(FormatError):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        images, _ = idx_fixture_bytes()
        labels = struct.pack(">II", 0x00000801, 3) + bytes([1, 0, 1])
        ip, lp = write_pair(tmp_path, images, labels)
        with pytest.raises(ConsistencyError):
            load_idx(ip, lp)

    def test_truncated_file(self, tmp_path):
        images, labels = idx_fixture_bytes()
        ip, lp = write_pair(tmp_path, images[:-3], labels)
        with pytest.raises(TruncatedFileError):
            load_idx(ip, lp)

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_truncated_gzip_file(self, tmp_path, which):
        ip, lp = write_pair(tmp_path, *idx_fixture_bytes(), gz=True)
        path = ip if which == "images" else lp
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(TruncatedFileError, match="compressed file ends"):
            load_idx(ip, lp)

    @pytest.mark.parametrize("damage", ["raw-bytes", "bad-deflate-block"])
    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_gz_file_without_a_gzip_stream(self, tmp_path, which, damage):
        images, labels = idx_fixture_bytes()
        ip, lp = write_pair(tmp_path, images, labels, gz=True)
        path, raw = (ip, images) if which == "images" else (lp, labels)
        if damage == "raw-bytes":
            path.write_bytes(raw)
        else:
            # byte 10 opens the deflate stream; 0x07 declares block type 3,
            # which deflate reserves
            whole = path.read_bytes()
            path.write_bytes(whole[:10] + b"\x07" + whole[11:])
        with pytest.raises(FormatError, match="not a valid gzip stream"):
            load_idx(ip, lp)

    def test_round_trip(self, tmp_path):
        ip, lp = write_pair(tmp_path, *idx_fixture_bytes())
        ds = load_idx(ip, lp)
        write_idx(ds, tmp_path / "out.idx", tmp_path / "outl.idx")
        again = load_idx(tmp_path / "out.idx", tmp_path / "outl.idx")
        np.testing.assert_array_equal(ds.features, again.features)
        np.testing.assert_array_equal(ds.labels, again.labels)


class TestSynthBlobs:
    def test_counts(self):
        ds = synth_blobs(3, 10, 5, 0.5, seed=0)
        assert len(ds) == 30
        assert all(np.sum(ds.labels == c) == 10 for c in range(3))

    def test_zero_spread_collapses_classes(self):
        ds = synth_blobs(2, 5, 4, 0.0, seed=1)
        for c in range(2):
            rows = ds.features[ds.labels == c]
            assert np.all(rows == rows[0])

    def test_nearest_centroid_oracle_is_perfect(self):
        ds = synth_blobs(4, 25, 8, 0.1, seed=2)
        centroids = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
        diffs = ds.features[:, None, :] - centroids[None, :, :]
        preds = np.argmin(np.einsum("ncd,ncd->nc", diffs, diffs), axis=1)
        assert np.mean(preds == ds.labels) == 1.0

    def test_deterministic(self):
        a = synth_blobs(3, 7, 6, 0.3, seed=9)
        b = synth_blobs(3, 7, 6, 0.3, seed=9)
        np.testing.assert_array_equal(a.features, b.features)

    def test_train_and_test_share_centers(self):
        train, test = synth_train_and_test(3, 20, 6, 0.05, seed=4, test_per_class=5)
        assert len(train) == 60 and len(test) == 15
        for c in range(3):
            tc = train.features[train.labels == c].mean(axis=0)
            ec = test.features[test.labels == c].mean(axis=0)
            assert np.linalg.norm(tc - ec) < 0.15

    @pytest.mark.parametrize("test_per_class", [-1, -3])
    def test_negative_test_per_class_rejected(self, test_per_class):
        with pytest.raises(InvalidInputError, match="test_per_class"):
            synth_train_and_test(3, 5, 2, 0.3, seed=0, test_per_class=test_per_class)


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        ds = synth_blobs(3, 10, 4, 0.5, seed=0)
        parts = dirichlet_partition(ds, 1, 0.5, seed=0)
        assert sorted(parts[0].tolist()) == list(range(30))

    @given(
        n_clients=st.integers(min_value=1, max_value=12),
        alpha=st.floats(min_value=0.05, max_value=100),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_is_complete_and_disjoint(self, n_clients, alpha, seed):
        ds = synth_blobs(4, 12, 3, 0.5, seed=7)
        parts = dirichlet_partition(ds, n_clients, alpha, seed=seed)
        flat = np.concatenate(parts)
        assert len(flat) == len(ds)
        assert len(np.unique(flat)) == len(ds)

    def test_near_uniform_limit(self):
        ds = synth_blobs(10, 1000, 2, 1.0, seed=3)
        for seed in range(5):
            parts = dirichlet_partition(ds, 4, 1e6, seed=seed)
            for part in parts:
                labels = ds.labels[part]
                for c in range(10):
                    count = int(np.sum(labels == c))
                    assert abs(count - 250) <= 25

    def test_min_per_client_enforced(self):
        ds = synth_blobs(2, 50, 3, 0.5, seed=5)
        parts = dirichlet_partition(ds, 10, 0.05, seed=11, min_per_client=8)
        assert all(len(p) >= 8 for p in parts)
        flat = np.concatenate(parts)
        assert len(np.unique(flat)) == len(ds)

    def test_infeasible_min_per_client(self):
        ds = synth_blobs(2, 5, 3, 0.5, seed=5)
        with pytest.raises(InfeasiblePartitionError):
            dirichlet_partition(ds, 4, 1.0, seed=0, min_per_client=5)

    @pytest.mark.parametrize("alpha", [np.inf, np.nan])
    def test_non_finite_alpha_rejected(self, alpha):
        ds = synth_blobs(2, 5, 3, 0.5, seed=5)
        with pytest.raises(InvalidInputError, match="alpha_dir"):
            dirichlet_partition(ds, 4, alpha, seed=0)

    @pytest.mark.parametrize(
        "n_clients, alpha, min_per_client, name",
        [
            (0, 1.0, 0, "n_clients"),
            (4, 0.0, 0, "alpha_dir"),
            (4, -1.0, 0, "alpha_dir"),
            (4, 1.0, -1, "min_per_client"),
        ],
    )
    def test_bad_setting_rejected(self, n_clients, alpha, min_per_client, name):
        ds = synth_blobs(2, 5, 3, 0.5, seed=5)
        with pytest.raises(InvalidInputError, match=name):
            dirichlet_partition(ds, n_clients, alpha, seed=0, min_per_client=min_per_client)

    def test_lower_alpha_is_more_skewed(self):
        # mean per-client label entropy: alpha=0.5 strictly below alpha=1000
        ds = synth_blobs(5, 200, 2, 1.0, seed=8)

        def mean_entropy(alpha, seed):
            parts = dirichlet_partition(ds, 10, alpha, seed=seed)
            ents = []
            for part in parts:
                if len(part) == 0:
                    continue
                counts = np.bincount(ds.labels[part], minlength=5)
                p = counts / counts.sum()
                nz = p[p > 0]
                ents.append(float(-(nz * np.log(nz)).sum()))
            return float(np.mean(ents))

        skewed = np.mean([mean_entropy(0.5, s) for s in range(20)])
        uniform = np.mean([mean_entropy(1000.0, s) for s in range(20)])
        assert skewed < uniform


def source_rows(part, ds):
    """Index in ds of each row of part; the fixtures' feature rows are distinct."""
    return [int(np.flatnonzero((ds.features == x).all(axis=1))[0]) for x in part.features]


class TestSplitLocalTest:
    def shard_dataset(self):
        rng = np.random.default_rng(0)
        return Dataset(rng.normal(size=(10, 3)), np.array([0] * 5 + [1] * 5), 2)

    def test_eight_two_split(self):
        ds = self.shard_dataset()
        shard = split_local_test(range(10), ds, 0.2, seed=0)
        assert len(shard.train) == 8
        assert len(shard.local_test) == 2

    def test_disjoint_by_identity(self):
        ds = self.shard_dataset()
        shard = split_local_test(range(10), ds, 0.3, seed=1)
        train, test = source_rows(shard.train, ds), source_rows(shard.local_test, ds)
        assert not set(train) & set(test)
        assert sorted([*train, *test]) == list(range(10))

    def test_stratified_one_of_each(self):
        ds = self.shard_dataset()
        shard = split_local_test(range(10), ds, 0.2, seed=2)
        assert sorted(ds.labels[source_rows(shard.local_test, ds)].tolist()) == [0, 1]

    def test_singleton_class_goes_to_train(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(size=(5, 2)), np.array([0, 0, 0, 0, 1]), 2)
        shard = split_local_test(range(5), ds, 0.25, seed=3)
        assert 1 not in ds.labels[source_rows(shard.local_test, ds)]
        assert 4 in source_rows(shard.train, ds)

    def test_empty_shard_rejected(self):
        ds = self.shard_dataset()
        with pytest.raises(EmptyShardError):
            split_local_test([], ds, 0.2, seed=0)

    def test_bad_fraction_rejected(self):
        ds = self.shard_dataset()
        with pytest.raises(InvalidInputError):
            split_local_test(range(10), ds, 1.0, seed=0)


class TestEpochOrder:
    def test_same_key_same_order(self):
        a = epoch_order(10, 3, seed=7, epoch=2)
        b = epoch_order(10, 3, seed=7, epoch=2)
        assert np.array_equal(a, b)

    def test_epochs_reshuffle(self):
        differing = 0
        for seed in range(20):
            a = epoch_order(20, 3, seed=seed, epoch=0)
            b = epoch_order(20, 3, seed=seed, epoch=1)
            if not np.array_equal(a, b):
                differing += 1
        assert differing >= 19

    def test_order_covers_shard(self):
        assert sorted(epoch_order(13, 3, seed=1, epoch=0).tolist()) == list(range(13))


class TestSubsample:
    def test_keeps_class_balance(self):
        ds = synth_blobs(4, 100, 3, 0.5, seed=0)
        sub = stratified_subsample(ds, 100, seed=1)
        assert len(sub) == 100
        counts = np.bincount(sub.labels, minlength=4)
        assert counts.min() >= 15

    def test_noop_when_large_enough(self):
        ds = synth_blobs(2, 5, 3, 0.5, seed=0)
        assert stratified_subsample(ds, 100, seed=0) is ds

    @staticmethod
    def sized(sizes):
        """Distinct feature rows, class c holding sizes[c] of them."""
        labels = np.repeat(np.arange(len(sizes)), sizes)
        return Dataset(np.arange(len(labels), dtype=float)[:, None], labels, len(sizes))

    @pytest.mark.parametrize(
        "sizes, n_samples, counts",
        [
            ([100, 100, 100], 100, [34, 33, 33]),
            ([100, 100, 100], 10, [4, 3, 3]),
            ([100, 100, 1], 10, [5, 4, 1]),
            ([6, 0, 3], 2, [1, 0, 1]),
            ([5, 5, 5], 2, [1, 1, 0]),
        ],
    )
    def test_takes_exactly_the_requested_rows(self, sizes, n_samples, counts):
        sub = stratified_subsample(self.sized(sizes), n_samples, seed=0)
        assert np.bincount(sub.labels, minlength=len(sizes)).tolist() == counts

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=6).filter(lambda s: sum(s) >= 2),
        st.integers(1, 200),
        st.integers(0, 3),
    )
    def test_exact_size_and_every_present_class_kept(self, sizes, n_samples, seed):
        n_samples = 1 + n_samples % (sum(sizes) - 1)
        ds = self.sized(sizes)
        sub = stratified_subsample(ds, n_samples, seed)
        rows = sub.features[:, 0].astype(int)
        assert len(sub) == n_samples
        assert rows.tolist() == sorted(set(rows.tolist()))
        np.testing.assert_array_equal(sub.labels, ds.labels[rows])
        counts = np.bincount(sub.labels, minlength=len(sizes))
        assert (counts <= sizes).all()
        present = np.flatnonzero(sizes)
        if n_samples >= len(present):
            assert (counts[present] >= 1).all()


def assert_same_dataset(got, want):
    assert got.n_classes == want.n_classes
    for name in ("features", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def shard_cases():
    """(dataset, shard) pairs with shards of 1 to 50 rows over 1 to 12
    classes; the small shards hold classes of one and two samples."""
    rng = np.random.default_rng(2025)
    for size in range(1, 51):
        n_classes = 1 + size % 12
        n = size + int(rng.integers(0, 20))
        ds = Dataset(rng.normal(size=(n, 3)), rng.integers(n_classes, size=n), n_classes)
        yield ds, rng.permutation(n)[:size]


class TestDataMatchesOracles:
    """The one-pass data code gives the arrays of the class-by-class oracles
    in `reference_oracles`, bit for bit."""

    @pytest.mark.parametrize("spread", [0.0, 0.3, 2.5])
    @pytest.mark.parametrize("per_class", [1, 2, 3, 17, 40])
    def test_synth_blobs(self, per_class, spread):
        for n_classes in range(1, 13):
            for input_dim in (1, 5):
                seed = 100 * n_classes + input_dim
                assert_same_dataset(
                    synth_blobs(n_classes, per_class, input_dim, spread, seed),
                    reference_synth_blobs(n_classes, per_class, input_dim, spread, seed),
                )

    @pytest.mark.parametrize("test_per_class", [None, 0, 1, 7])
    @pytest.mark.parametrize("spread", [0.0, 0.3])
    @pytest.mark.parametrize("per_class", [1, 2, 5, 40])
    def test_synth_train_and_test(self, per_class, spread, test_per_class):
        for n_classes in (1, 2, 7, 12):
            got = synth_train_and_test(n_classes, per_class, 4, spread, 9, test_per_class)
            want = reference_synth_train_and_test(n_classes, per_class, 4, spread, 9, test_per_class)
            for g, w in zip(got, want):
                assert_same_dataset(g, w)

    @pytest.mark.parametrize("test_fraction", np.linspace(0.05, 0.95, 19).round(2).tolist())
    def test_split_local_test(self, test_fraction):
        counts = set()
        for i, (ds, shard) in enumerate(shard_cases()):
            counts.update(np.bincount(ds.labels[shard]).tolist())
            got = split_local_test(shard, ds, test_fraction, seed=i, client_id=i)
            want = reference_split_local_test(shard, ds, test_fraction, seed=i)
            assert_same_dataset(got.train, want.train)
            assert_same_dataset(got.local_test, want.local_test)
        assert {1, 2} <= counts  # the grid has one- and two-sample classes

    def test_epoch_order(self):
        for size in range(51):
            for client, seed, epoch in [(0, 0, 0), (3, 7, 2), (19, 12345, 40)]:
                got = epoch_order(size, client, seed, epoch)
                want = reference_epoch_order(size, client, seed, epoch)
                assert got.dtype == want.dtype and np.array_equal(got, want)
