import copy
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import hks.federation as federation
from hks.cli import load_experiment_data, parse_config
from hks.data import synth_train_and_test
from hks.errors import (
    ConfigError,
    DivergenceError,
    EmptyDatasetError,
    InvalidInputError,
)
from hks.federation import (
    _TAG_ENCODER,
    FederationConfig,
    Method,
    child_seed,
    init_federation,
    epoch_plan,
    run_experiment,
    run_round,
)
from hks.knowledge import (
    Granularity,
    HnswIndex,
    KnowledgeCache,
    RandomProjectionEncoder,
    build_hierarchy,
)
from hks.metrics import evaluate
from hks.models import TIER_HIDDEN, CapacityTier, Model, forward_batch
from hks.numerics import KdConfig

from reference_oracles import (
    ReferenceHnsw,
    exact_neighbour_table,
    feddistill_class_teacher,
    mean_kd,
    neighbour_table,
    neighbour_teacher,
    one_model_loss_and_grad,
    path_teacher,
    reference_client_phase,
    softmax_rows,
)


def tiny_cfg(method=Method.HKS, **kw):
    base = dict(
        method=method,
        n_clients=3,
        rounds=4,
        warmup_rounds=2,
        local_epochs=1,
        lr=0.05,
        batch_size=8,
        alpha_dir=1000.0,
        seed=0,
        granularity=Granularity.ALL,
    )
    base.update(kw)
    return FederationConfig(**base)


def tiny_data(seed=0):
    return synth_train_and_test(3, 40, 6, 0.3, seed=seed, test_per_class=10)


@pytest.fixture(scope="module")
def dataset():
    return tiny_data()


def tier_of(stack):
    """The capacity tier whose hidden layers a tier stack's models have."""
    (tier,) = [t for t, hidden in TIER_HIDDEN.items() if hidden == stack.stack.layer_dims[1:-1]]
    return tier


def sample_hashes(state):
    """Every cache row's hash, from the config's encoder seed stream, as
    `init_federation` hashes its training samples."""
    cfg = state.config
    encoder = RandomProjectionEncoder(
        state.train.input_dim, cfg.d_hash, child_seed(cfg.seed, _TAG_ENCODER)
    )
    return encoder.encode_rows(state.train.features)


class TestInit:
    def test_mod3_tier_counts_for_twenty_clients(self):
        train, test = synth_train_and_test(4, 200, 4, 0.5, seed=1)
        cfg = tiny_cfg(Method.HKS, n_clients=20, alpha_dir=1000.0)
        state = init_federation(cfg, train, test)
        members = {tier_of(stack): sorted(stack.members.tolist()) for stack in state.tiers}
        assert members == {
            CapacityTier.SMALL: list(range(0, 20, 3)),
            CapacityTier.MEDIUM: list(range(1, 20, 3)),
            CapacityTier.LARGE: list(range(2, 20, 3)),
        }

    def test_cache_covers_every_training_sample(self, dataset, monkeypatch):
        # only fedcache has a neighbour table, and no method builds a hash index
        train, test = dataset

        def no_index(*args, **kwargs):
            raise AssertionError("a run built an HNSW index")

        monkeypatch.setattr(HnswIndex, "__init__", no_index)
        for method in Method:
            state = init_federation(tiny_cfg(method), train, test)
            total_train = sum(len(c.shard.train) for c in state.clients)
            assert len(state.cache) == total_train
            if method is Method.FEDCACHE:
                assert state.neighbors.shape == (total_train, state.config.R)
            else:
                assert state.neighbors is None, method

    @pytest.mark.parametrize("global_test", [None, "empty"])
    def test_global_test_set_required_before_any_training(self, dataset, global_test, monkeypatch):
        train, _ = dataset
        if global_test == "empty":
            global_test = train.subset([])
        trained = []
        monkeypatch.setattr(federation, "client_train", lambda *a: trained.append(a))
        with pytest.raises(EmptyDatasetError, match="global test set") as info:
            run_experiment(tiny_cfg(), train, global_test)
        assert info.value.exit_code == 8
        assert trained == []

    def test_init_is_deterministic(self, dataset):
        train, test = dataset
        a = init_federation(tiny_cfg(), train, test)
        b = init_federation(tiny_cfg(), train, test)
        for ca, cb in zip(a.clients, b.clients):
            assert np.array_equal(ca.model.params, cb.model.params)
            assert np.array_equal(ca.shard.train.features, cb.shard.train.features)
            assert np.array_equal(ca.shard.train.labels, cb.shard.train.labels)

    def test_fedavg_uses_one_tier(self, dataset):
        train, test = dataset
        cfg = tiny_cfg(Method.FEDAVG, fedavg_tier=CapacityTier.SMALL)
        state = init_federation(cfg, train, test)
        (stack,) = state.tiers
        assert tier_of(stack) is CapacityTier.SMALL
        assert sorted(stack.members.tolist()) == list(range(len(state.clients)))

    def test_labels_cached_only_for_label_methods(self, dataset):
        train, test = dataset
        for method, expect in [
            (Method.HKS, False),
            (Method.LOCAL_ONLY, False),
            (Method.FEDAVG, False),
            (Method.FEDDISTILL, True),
            (Method.FEDCACHE, True),
        ]:
            state = init_federation(tiny_cfg(method), train, test)
            assert (state.cache.labels is not None) == expect, method

    def test_hashes_only_for_fedcache(self, dataset, monkeypatch):
        train, test = dataset
        search = federation.fedcache_neighbors
        for method in Method:
            searched = []

            def recording(cache, hashes, R):
                searched.append(hashes)
                return search(cache, hashes, R)

            monkeypatch.setattr(federation, "fedcache_neighbors", recording)
            state = init_federation(tiny_cfg(method, d_hash=5), train, test)
            assert not hasattr(state.cache, "hashes")
            if method is Method.FEDCACHE:
                (hashes,) = searched
                np.testing.assert_array_equal(hashes, sample_hashes(state))
                assert hashes.shape == (len(state.cache), 5)
                np.testing.assert_allclose(np.linalg.norm(hashes, axis=1), 1.0)
                assert state.neighbors.shape == (len(state.cache), state.config.R)
            else:
                assert searched == [], method
                assert state.neighbors is None, method

    def test_cache_rows_are_client_blocks_in_local_index_order(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.FEDDISTILL), train, test)
        cache = state.cache
        start = 0
        for k, client in enumerate(state.clients):
            rows = cache.rows[k]
            assert rows == slice(start, start + len(client.shard.train))
            assert (cache.owner[rows] == k).all()
            np.testing.assert_array_equal(cache.labels[rows], client.shard.train.labels)
            start = rows.stop
        assert start == len(cache)


class TestValidate:
    @pytest.mark.parametrize("key", ["lr", "alpha_dir", "test_fraction"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_float_settings_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            tiny_cfg(**{key: value})

    @pytest.mark.parametrize("key", ["method", "granularity", "fedavg_tier"])
    def test_unknown_enum_value_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            FederationConfig(**{key: "bogus"})

    def test_built_config_cannot_change(self):
        cfg = tiny_cfg()
        with pytest.raises(FrozenInstanceError):
            cfg.rounds = 2
        assert cfg.rounds == 4

    def test_replace_checks_the_new_config(self):
        with pytest.raises(ConfigError, match="'rounds'"):
            replace(tiny_cfg(), rounds=-1)

    def test_replace_keeps_derived_values_and_none_derives_them_again(self):
        cfg = FederationConfig()
        assert (cfg.warmup_rounds, cfg.min_per_client) == (10, 16)
        assert type(cfg.warmup_rounds) is int and type(cfg.min_per_client) is int
        # the resolved values are plain fields, so replace carries them over
        assert replace(cfg, batch_size=32).min_per_client == 16
        assert FederationConfig(batch_size=32).min_per_client == 64
        with pytest.raises(ConfigError, match="'warmup_rounds'"):
            replace(cfg, rounds=5)
        # None derives a key again from the new settings
        assert replace(cfg, batch_size=32, min_per_client=None).min_per_client == 64
        assert replace(cfg, rounds=5, warmup_rounds=None).warmup_rounds == 5


class TestRunRound:
    @pytest.mark.parametrize("method", [Method.LOCAL_ONLY, Method.FEDAVG])
    def test_parameter_methods_never_hold_logits(self, dataset, method, monkeypatch):
        train, test = dataset
        state = init_federation(tiny_cfg(method, rounds=3), train, test)

        def no_upload(*args):
            raise AssertionError(f"{method.value} uploaded logits")

        monkeypatch.setattr(KnowledgeCache, "update_logits", no_upload)
        assert state.cache.logits is None
        for _ in range(3):
            run_round(state)
            assert state.cache.logits is None

    def test_fedavg_broadcast_synchronizes_clients(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.FEDAVG), train, test)
        run_round(state)
        base = state.clients[0].model.params
        for c in state.clients[1:]:
            assert np.array_equal(c.model.params, base)

    @pytest.mark.parametrize("method", [Method.FEDDISTILL, Method.FEDCACHE, Method.HKS])
    def test_cache_holds_each_rounds_upload_buffer(self, dataset, method, monkeypatch):
        train, test = dataset
        state = init_federation(tiny_cfg(method, rounds=3, warmup_rounds=1), train, test)
        assert state.cache.logits is None
        train_clients = federation.client_train
        buffers = {}

        def recording(tier, state, round_index, table, uploads):
            assert buffers.setdefault(round_index, uploads) is uploads
            return train_clients(tier, state, round_index, table, uploads)

        monkeypatch.setattr(federation, "client_train", recording)
        for t in range(3):
            run_round(state)
            uploads = buffers[t]
            # a copy of the buffer, so the next round's writes cannot reach it
            assert not np.shares_memory(state.cache.logits, uploads)
            np.testing.assert_array_equal(state.cache.logits, uploads)

    @pytest.mark.parametrize("method", [Method.FEDDISTILL, Method.FEDCACHE, Method.HKS])
    def test_one_upload_per_round(self, dataset, method, monkeypatch):
        train, test = dataset
        update = KnowledgeCache.update_logits
        calls = []

        def counted(cache, Z):
            calls.append(Z.shape)
            return update(cache, Z)

        monkeypatch.setattr(KnowledgeCache, "update_logits", counted)
        result = run_experiment(tiny_cfg(method, rounds=3, warmup_rounds=1), train, test)
        shape = (len(result.state.cache), result.state.train.n_classes)
        assert calls == [shape] * 3

    @pytest.mark.parametrize("method", [Method.FEDDISTILL, Method.FEDCACHE, Method.HKS])
    def test_no_table_before_the_first_upload(self, dataset, method):
        train, test = dataset
        state = init_federation(tiny_cfg(method, warmup_rounds=0), train, test)
        # fedcache reads labels only to search its neighbours, at init
        reads = state.cache.label_reads
        assert (reads > 0) == (method is Method.FEDCACHE)
        assert federation.teacher_tables(state, 0) is None
        run_round(state)
        assert state.cache.label_reads == reads

    @pytest.mark.parametrize("method", list(Method))
    def test_server_phase_leaves_the_state_unchanged(self, dataset, method, monkeypatch):
        train, test = dataset
        tables = federation.teacher_tables
        checked = []

        def checking(state, round_index):
            fields = dict(vars(state))
            contents = copy.deepcopy((state.neighbors, state.cache.logits))
            table = tables(state, round_index)
            assert vars(state).keys() == fields.keys()
            for key, value in vars(state).items():
                assert value is fields[key], key
            neighbors, logits = contents
            assert (state.neighbors is None) == (neighbors is None)
            assert neighbors is None or np.array_equal(state.neighbors, neighbors)
            assert (state.cache.logits is None) == (logits is None)
            assert logits is None or np.array_equal(state.cache.logits, logits)
            assert state.round == round_index
            checked.append(round_index)
            return table

        monkeypatch.setattr(federation, "teacher_tables", checking)
        result = run_experiment(tiny_cfg(method, rounds=4, warmup_rounds=1), train, test)
        assert checked == [0, 1, 2, 3]
        assert any(r.mean_kd > 0 for r in result.reports) == (method in federation.LOGIT_METHODS)

    def test_feddistill_reads_each_label_once_per_distilling_round(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.FEDDISTILL, rounds=5, warmup_rounds=2), train, test)
        n = len(state.cache)
        reads = []
        for _ in range(5):
            run_round(state)
            reads.append(state.cache.label_reads)
        assert reads == [0, 0, n, 2 * n, 3 * n]

    def test_hierarchy_built_first_for_the_round_after_warmup(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.HKS, warmup_rounds=2), train, test)
        flags = [run_round(state).hierarchy_built for _ in range(4)]
        assert flags == [False, False, False, True]

    @pytest.mark.parametrize("rounds,warmup_rounds", [(4, 0), (4, 2), (4, 3), (4, 4), (1, 0)])
    def test_one_tree_per_distilling_round_and_none_after_the_last(
        self, dataset, rounds, warmup_rounds, monkeypatch
    ):
        train, test = dataset
        build = federation.build_hierarchy
        update = KnowledgeCache.update_logits
        uploaded = []
        built_in = []

        def recording(cache, Z):
            uploaded.append(Z.copy())
            return update(cache, Z)

        def counting(cache, *args, **kwargs):
            # a tree clusters the last upload and serves the round after it
            np.testing.assert_array_equal(cache.logits, uploaded[-1])
            built_in.append(len(uploaded))
            return build(cache, *args, **kwargs)

        monkeypatch.setattr(KnowledgeCache, "update_logits", recording)
        monkeypatch.setattr(federation, "build_hierarchy", counting)
        seen = record_tables(monkeypatch)
        cfg = tiny_cfg(Method.HKS, rounds=rounds, warmup_rounds=warmup_rounds)
        result = run_experiment(cfg, train, test)
        distilling = sorted({t for (t, _), table in seen.items() if table is not None})
        assert len(built_in) == max(0, rounds - warmup_rounds - 1)
        assert built_in == distilling
        flags = [r.hierarchy_built for r in result.reports]
        assert flags == [t in distilling for t in range(rounds)]

    def test_round_limit_enforced(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(rounds=1, warmup_rounds=0), train, test)
        run_round(state)
        with pytest.raises(InvalidInputError):
            run_round(state)


class TestWarmupGate:
    @pytest.mark.parametrize(
        "method", [Method.LOCAL_ONLY, Method.FEDAVG, Method.FEDDISTILL, Method.FEDCACHE, Method.HKS]
    )
    def test_no_kd_before_warmup(self, dataset, method):
        train, test = dataset
        cfg = tiny_cfg(method, rounds=4, warmup_rounds=2)
        result = run_experiment(cfg, train, test)
        for report in result.reports[:2]:
            assert report.mean_kd == 0.0

    def test_kd_becomes_active_after_warmup(self, dataset):
        train, test = dataset
        for method in (Method.FEDDISTILL, Method.FEDCACHE, Method.HKS):
            result = run_experiment(tiny_cfg(method, rounds=5, warmup_rounds=1), train, test)
            assert any(r.mean_kd > 0 for r in result.reports[2:]), method

    def test_hks_round_w_trains_without_tree(self, dataset):
        # the first hierarchy clusters round W's uploads, so the round-W
        # client phase itself is still cross-entropy only
        train, test = dataset
        cfg = tiny_cfg(Method.HKS, rounds=4, warmup_rounds=2)
        result = run_experiment(cfg, train, test)
        assert result.reports[2].mean_kd == 0.0
        assert not result.reports[2].hierarchy_built
        assert result.reports[3].mean_kd > 0.0

    @pytest.mark.parametrize("method", [Method.FEDDISTILL, Method.FEDCACHE, Method.HKS])
    @pytest.mark.parametrize("warmup_rounds", [0, 1, 2])
    def test_rounds_with_a_table(self, dataset, method, warmup_rounds, monkeypatch):
        # hks distills from round W + 1, the others from the first round
        # after an upload, max(W, 1)
        train, test = dataset
        build = federation.teacher_tables
        tabled = []

        def recording(state, round_index):
            table = build(state, round_index)
            if table is not None:
                tabled.append(round_index)
            return table

        monkeypatch.setattr(federation, "teacher_tables", recording)
        cfg = tiny_cfg(method, rounds=warmup_rounds + 3, warmup_rounds=warmup_rounds)
        result = run_experiment(cfg, train, test)
        first = warmup_rounds + 1 if method is Method.HKS else max(warmup_rounds, 1)
        assert tabled == list(range(first, cfg.rounds))
        built = [r.round for r in result.reports if r.hierarchy_built]
        assert built == (tabled if method is Method.HKS else [])


def record_tables(monkeypatch):
    """Map (round, client) to the teacher table rows each client phase
    trained that client on, or None."""
    train = federation.client_train
    seen = {}

    def recording(tier, state, round_index, table, uploads):
        for k in tier.members:
            rows = state.cache.rows[k]
            seen[(round_index, int(k))] = None if table is None else table.take(rows)
        return train(tier, state, round_index, table, uploads)

    monkeypatch.setattr(federation, "client_train", recording)
    return seen


class TestFedCacheNeighbourTable:
    def run_recording(self, state, monkeypatch):
        """Run every round; per round, the tables the client phase read and
        each sample's teacher from the exact-kNN neighbour rows at the
        start of every round whose cache holds logits."""
        seen = record_tables(monkeypatch)
        expected = {}
        hashes = sample_hashes(state)
        for t in range(state.config.rounds):
            if state.cache.logits is not None:
                neighbours = exact_neighbour_table(state.cache, hashes, state.config.R)
                for row in range(len(state.cache)):
                    expected[(t, row)] = neighbour_teacher(state.cache, neighbours[row])
            run_round(state)
        return seen, expected

    @pytest.mark.parametrize("warmup_rounds", [0, 2])
    def test_table_teacher_matches_exact_knn_every_round(self, dataset, warmup_rounds, monkeypatch):
        train, test = dataset
        cfg = tiny_cfg(Method.FEDCACHE, rounds=5, warmup_rounds=warmup_rounds)
        state = init_federation(cfg, train, test)
        seen, expected = self.run_recording(state, monkeypatch)
        n = len(state.cache)
        # teachers exist from the first round in which every record holds logits
        first = max(warmup_rounds, 1)
        assert all(seen[key] is None for key in seen if key[0] < first)
        assert sorted({key[0] for key in seen if seen[key] is not None}) == list(range(first, 5))
        T = cfg.kd.temperature
        for (t, k), table in seen.items():
            if table is None:
                continue
            for i in range(len(table.has)):
                teacher = expected[(t, state.cache.rows[k].start + i)]
                assert table.has[i] == bool(teacher), (t, k, i)
                if teacher:
                    np.testing.assert_array_equal(
                        table.q[i], softmax_rows(teacher[0][None], T)[0], err_msg=str((t, k, i))
                    )
        assert sum(seen[(first, k)].has.sum() for k in range(3)) > n // 2

    @pytest.mark.parametrize("warmup_rounds", [0, 2])
    def test_neighbours_searched_once_per_run(self, dataset, warmup_rounds, monkeypatch):
        train, test = dataset
        search = federation.fedcache_neighbors
        calls = []

        def counted(cache, hashes, R):
            calls.append(len(hashes))
            return search(cache, hashes, R)

        monkeypatch.setattr(federation, "fedcache_neighbors", counted)
        cfg = tiny_cfg(Method.FEDCACHE, rounds=5, warmup_rounds=warmup_rounds)
        result = run_experiment(cfg, train, test)
        assert calls == [len(result.state.cache)]
        assert len(result.state.neighbors) == len(result.state.cache)

    def test_init_table_equals_exact_knn(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.FEDCACHE, R=3), train, test)
        table = exact_neighbour_table(state.cache, sample_hashes(state), 3)
        np.testing.assert_array_equal(state.neighbors, table)
        assert state.neighbors.dtype == table.dtype

    def test_benchmark_scale_table_matches_the_reference_index(self):
        # the fedcache benchmark's federation: 638 samples, R=4. Runs built
        # their table from an HNSW index with m=16, ef_construction=200,
        # ef_search=64 and seed stream 5; the exact table equals it row for row.
        rc = parse_config(
            overrides=dict(synthetic="4,200,16,0.3", method="fedcache", R=4, n_clients=10, alpha_dir=0.5)
        )
        train, test = load_experiment_data(rc)
        state = init_federation(rc.federation, train, test)
        cache, hashes = state.cache, sample_hashes(state)
        assert len(cache) == 638
        dim, seed = rc.federation.d_hash, child_seed(rc.federation.seed, 5)
        index, reference = HnswIndex(dim, seed=seed), ReferenceHnsw(dim, seed=seed)
        for h in hashes:
            index.insert(h)
            reference.insert(h)
        assert index.neighbors == reference.neighbors
        assert index.levels == reference.levels
        assert index.entry_point == reference.entry_point

        R = rc.federation.R
        table = neighbour_table(cache, hashes, R, index.query)
        np.testing.assert_array_equal(table, neighbour_table(cache, hashes, R, reference.query))
        np.testing.assert_array_equal(state.neighbors, table)
        assert (table >= 0).all()

    def test_every_label_read_happens_at_init(self, dataset, monkeypatch):
        train, test = dataset
        cfg = tiny_cfg(Method.FEDCACHE, rounds=4, warmup_rounds=2)
        state = init_federation(cfg, train, test)
        # one search reads each row's label once
        n = len(state.cache)
        assert state.cache.label_reads == n
        seen = record_tables(monkeypatch)
        for _ in range(cfg.rounds):
            run_round(state)
            assert state.cache.label_reads == n
        assert [t for (t, _), table in seen.items() if table is not None] == [2] * 3 + [3] * 3


def probe_kd(teachers, z_s, cfg):
    """The KD loss and its student-logit gradient that a training step takes
    from a one-row teacher table, read through an identity model whose
    logits are its inputs (its bias gradient is the logit gradient)."""
    C = z_s.shape[0]
    params = np.concatenate([np.eye(C).ravel(), np.zeros(C)])
    probe = Model((C, C), params)
    X, y, unit = z_s[None], np.array([0]), replace(cfg, alpha_kd=1.0)
    (_, kd), grads, _ = one_model_loss_and_grad(probe, X, y, teachers, unit)
    _, ce_grads, _ = one_model_loss_and_grad(probe, X, y, None, unit)
    return kd, (grads - ce_grads)[C * C :]


def oracle_teachers(state):
    """Every cache row's teacher logits from the per-sample oracles, as the
    round about to run would read them; None when the method has none yet."""
    cfg, cache = state.config, state.cache
    rows = range(len(cache))
    if cache.logits is None:
        return None
    if cfg.method is Method.HKS:
        if state.round <= cfg.warmup_rounds:
            return None
        tree = build_hierarchy(cache, state.train.n_classes, cfg.linkage)
        return [path_teacher(cache, tree, row, cfg.granularity, cfg.exclude_self) for row in rows]
    if cfg.method is Method.FEDDISTILL:
        return [feddistill_class_teacher(cache, row) for row in rows]
    neighbours = exact_neighbour_table(cache, sample_hashes(state), cfg.R)
    return [neighbour_teacher(cache, neighbours[row]) for row in rows]


ORACLE_CASES = [
    *[(Method.HKS, g, e, "average") for g in Granularity for e in (True, False)],
    (Method.HKS, Granularity.ALL, True, "single"),
    (Method.HKS, Granularity.MIDDLE, True, "complete"),
    (Method.FEDDISTILL, Granularity.ALL, True, "average"),
    (Method.FEDCACHE, Granularity.ALL, True, "average"),
]


class TestTeacherTableOracle:
    @pytest.mark.parametrize("warmup_rounds", [0, 2])
    @pytest.mark.parametrize("method,granularity,exclude_self,linkage", ORACLE_CASES)
    def test_per_sample_kd_matches_oracle_every_round(
        self, dataset, method, granularity, exclude_self, linkage, warmup_rounds, monkeypatch
    ):
        train, test = dataset
        cfg = tiny_cfg(
            method,
            rounds=4,
            warmup_rounds=warmup_rounds,
            granularity=granularity,
            exclude_self=exclude_self,
            linkage=linkage,
        )
        state = init_federation(cfg, train, test)
        seen = record_tables(monkeypatch)
        expected = []
        for _ in range(cfg.rounds):
            expected.append(oracle_teachers(state))
            run_round(state)
        # no method distills before the first upload, at the end of round 0
        first = warmup_rounds + 1 if method is Method.HKS else max(warmup_rounds, 1)
        distilled = sorted({t for (t, _), table in seen.items() if table is not None})
        assert distilled == list(range(first, cfg.rounds))
        rng = np.random.default_rng(0)
        for (t, k), table in seen.items():
            if table is None:
                continue
            for i in range(len(table.has)):
                teachers = expected[t][state.cache.rows[k].start + i]
                assert table.has[i] == bool(teachers), (t, k, i)
                z_s = rng.normal(scale=2.0, size=state.train.n_classes)
                loss, grad = probe_kd(table.take([i]), z_s, cfg.kd)
                want_loss, want_grad = mean_kd(z_s, teachers, cfg.kd)
                assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12), (t, k, i)
                np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)


class TestEmptyLocalTest:
    CFG = dict(
        method="fedavg",
        n_clients=12,
        rounds=1,
        warmup_rounds=0,
        min_per_client=1,
        batch_size=1,
        alpha_dir=0.2,
        seed=0,
    )

    def test_client_without_local_test_samples_rejected_before_training(self, monkeypatch):
        train, test = synth_train_and_test(10, 6, 8, 0.3, seed=0)
        trained = []
        monkeypatch.setattr(federation, "client_train", lambda *a: trained.append(a))
        with pytest.raises(EmptyDatasetError, match="client 3 has no local test samples"):
            run_experiment(FederationConfig(**self.CFG), train, test)
        assert trained == []


class TestDivergence:
    @pytest.mark.parametrize("method", [Method.HKS, Method.FEDAVG])
    def test_exploding_learning_rate_raises_typed_error(self, dataset, method):
        train, test = dataset
        with pytest.raises(DivergenceError, match="training diverged"):
            run_experiment(tiny_cfg(method, lr=1e12), train, test)

    def test_overflowing_logits_are_never_scored(self, dataset):
        # lr 1e12 keeps fedavg's parameters finite for two rounds while its
        # logits overflow: evaluation must raise, silently, before any
        # accuracy read from them is reported
        train, test = dataset
        state = init_federation(tiny_cfg(Method.FEDAVG, lr=1e12), train, test)
        reports = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="training diverged"):
                for _ in range(state.config.rounds):
                    reports.append(run_round(state))
                    with np.errstate(all="ignore"):
                        for c in state.clients:
                            assert np.isfinite(forward_batch(c.model, test.features)).all()
        assert reports

    def test_non_finite_logits_raise_typed_error(self, dataset, monkeypatch):
        train, test = dataset
        step = federation.train_step

        def poisoned(*args):
            # every stacked client's first logit row: the error names client 0
            losses, Z = step(*args)
            Z = Z.copy()
            Z[:, 0, 0] = -np.inf
            return losses, Z

        monkeypatch.setattr(federation, "train_step", poisoned)
        state = init_federation(tiny_cfg(Method.FEDDISTILL), train, test)
        with pytest.raises(DivergenceError, match="non-finite logits at client 0 in round 0"):
            run_round(state)

    def test_lowest_diverged_client_is_named_whatever_its_tier(self, dataset):
        # tiers are trained one after another, small first; the error must
        # still name the lowest client id that went non-finite
        train, test = dataset
        state = init_federation(tiny_cfg(Method.HKS, n_clients=6), train, test)
        for client_id in (3, 1):
            state.train.features[state.cache.rows[client_id]] = 1e300
        tiers = {int(k): tier_of(stack) for stack in state.tiers for k in stack.members}
        assert [tiers[1], tiers[3]] == [CapacityTier.MEDIUM, CapacityTier.SMALL]
        with pytest.raises(DivergenceError, match="non-finite parameters at client 1 in round 0"):
            run_round(state)


class TestTierStacks:
    """Each tier's stack holds its clients' models for the whole run: every
    client's model is a view of its stack row."""

    @staticmethod
    def assert_models_are_stack_rows(state):
        cfg = state.config
        members = []
        for tier in state.tiers:
            ids = tier.members.tolist()
            # largest shard first, ties by client id
            assert ids == sorted(ids, key=lambda k: (-len(state.clients[k].shard.train), k))
            for r, k in enumerate(ids):
                client = state.clients[k]
                assert np.shares_memory(client.model.params, tier.stack.params[r])
                assert np.array_equal(client.model.params, tier.stack.params[r])
                assert tier.sizes[r] == len(client.shard.train)
                assert client.model.layer_dims == tier.stack.layer_dims
                assert tier_of(tier) is (
                    cfg.fedavg_tier if cfg.method is Method.FEDAVG else CapacityTier.for_client(k)
                )
            members += ids
        assert sorted(members) == list(range(len(state.clients)))

    @pytest.mark.parametrize("method", list(Method))
    def test_client_models_are_views_of_their_stack_rows_every_round(self, dataset, method):
        train, test = dataset
        state = init_federation(tiny_cfg(method, n_clients=7, alpha_dir=0.3), train, test)
        assert len(state.tiers) == (1 if method is Method.FEDAVG else 3)
        self.assert_models_are_stack_rows(state)
        for _ in range(state.config.rounds):
            run_round(state)
            self.assert_models_are_stack_rows(state)

    @pytest.mark.parametrize("method", list(Method))
    def test_step_views_stay_live_every_round(self, dataset, method):
        # each full step trains the view of its prefix of the stack that it
        # carries from init; fedavg's in-place broadcast must reach it, or
        # later rounds would train stale copies
        train, test = dataset
        cfg = tiny_cfg(method, n_clients=7, alpha_dir=0.3, batch_size=5, local_epochs=2)
        state = init_federation(cfg, train, test)
        ends = {len(view.params) for tier in state.tiers for _, view in tier.full}
        assert len(ends) > 1
        for _ in range(cfg.rounds):
            run_round(state)
            for tier in state.tiers:
                for _, view in tier.full:
                    end = len(view.params)
                    assert np.shares_memory(view.params, tier.stack.params[:end])
                    assert np.array_equal(view.params, tier.stack.params[:end])
                    assert view.layer_dims == tier.stack.layer_dims

    def test_fedavg_writes_the_merged_vector_into_every_row(self, dataset, monkeypatch):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.FEDAVG, n_clients=7, alpha_dir=0.3), train, test)
        (tier,) = state.tiers
        client_train, aggregate = federation.client_train, federation.fedavg_aggregate
        trained, merged = [], []

        def recording_train(*args):
            out = client_train(*args)
            trained.append(tier.stack.params.copy())
            return out

        def recording_aggregate(params, sizes):
            merged.append((params.copy(), sizes, aggregate(params, sizes)))
            return merged[-1][2]

        monkeypatch.setattr(federation, "client_train", recording_train)
        monkeypatch.setattr(federation, "fedavg_aggregate", recording_aggregate)
        run_round(state)
        ((rows, sizes, vector),) = merged
        # the trained rows are averaged in client-id order, by shard size
        by_id = np.argsort(tier.members)
        assert np.array_equal(rows, trained[0][by_id])
        assert np.array_equal(sizes, [len(c.shard.train) for c in state.clients])
        assert not np.array_equal(trained[0][0], trained[0][1])
        for row in tier.stack.params:
            assert np.array_equal(row, vector)
        self.assert_models_are_stack_rows(state)


class TestEpochPlan:
    @staticmethod
    def tails_as_lists(tails):
        return [(rows.tolist(), positions.tolist()) for rows, positions in tails]

    @staticmethod
    def random_sizes(seed):
        rng = np.random.default_rng(seed)
        sizes = np.sort(rng.integers(1, 40, size=int(rng.integers(1, 9))))[::-1]
        return sizes, int(rng.integers(1, 9))

    def test_one_shard_is_cut_into_full_batches_then_the_rest(self):
        full, tails = epoch_plan(np.array([10]), 8)
        assert full == [(0, 1)]
        assert self.tails_as_lists(tails) == [([0], [[8, 9]])]

    def test_full_steps_then_one_step_per_short_width_at_any_position(self):
        # 4 steps, where a step per (position, width) block would take 6
        full, tails = epoch_plan(np.array([10, 10, 9, 6, 2]), 4)
        assert full == [(0, 4), (4, 3)]
        assert self.tails_as_lists(tails) == [
            ([2], [[8]]),
            ([0, 1, 3, 4], [[8, 9], [8, 9], [4, 5], [0, 1]]),
        ]

    def test_shards_shorter_than_a_batch_have_only_a_tail(self):
        full, tails = epoch_plan(np.array([3, 2, 2]), 4)
        assert full == []
        assert self.tails_as_lists(tails) == [([1, 2], [[0, 1], [0, 1]]), ([0], [[0, 1, 2]])]

    def test_shards_of_whole_batches_have_no_tail(self):
        full, tails = epoch_plan(np.array([8, 4, 4]), 4)
        assert full == [(0, 3), (4, 1)]
        assert tails == []

    @pytest.mark.parametrize("seed", range(5))
    def test_every_row_gets_its_own_batches_in_order(self, seed):
        sizes, batch_size = self.random_sizes(seed)
        seen = [[] for _ in sizes]
        full, tails = epoch_plan(sizes, batch_size)
        for start, end in full:
            assert 0 < end <= len(sizes)
            for row in range(end):
                seen[row].append((start, batch_size))
        for rows, positions in tails:
            assert positions.ndim == 2 and len(positions) == len(rows)
            for row, batch in zip(rows, positions):
                assert np.array_equal(batch, np.arange(batch[0], batch[0] + len(batch)))
                seen[row].append((int(batch[0]), len(batch)))
        for row, n in enumerate(sizes):
            want = [(i, min(batch_size, n - i)) for i in range(0, n, batch_size)]
            assert seen[row] == want

    @pytest.mark.parametrize("seed", range(5))
    def test_steps_per_epoch_are_the_most_full_batches_plus_the_distinct_short_widths(self, seed):
        sizes, batch_size = self.random_sizes(seed)
        full, tails = epoch_plan(sizes, batch_size)
        widths = {int(n) % batch_size for n in sizes} - {0}
        assert len(full) + len(tails) == sizes[0] // batch_size + len(widths)


class TestClientPhaseMatchesReference:
    """The lockstep client phase leaves every client where training it alone,
    one model at a time, would: over whole runs with unequal shards, so short
    batches of one width fall at different positions and train in one step,
    with shards smaller than a batch, and all three tiers."""

    @staticmethod
    def assert_same_report(got, want):
        assert got.round == want.round
        assert np.array_equal(got.per_client_local_acc, want.per_client_local_acc)
        assert np.array_equal(got.global_acc_per_client, want.global_acc_per_client)
        assert (got.mean_ce, got.mean_kd, got.hierarchy_built) == (
            want.mean_ce, want.mean_kd, want.hierarchy_built
        )

    @pytest.mark.parametrize(
        "method, fedavg_tier",
        [
            (Method.LOCAL_ONLY, "small"),
            (Method.FEDAVG, "small"),
            (Method.FEDAVG, "large"),
            (Method.FEDDISTILL, "small"),
            (Method.FEDCACHE, "small"),
            (Method.HKS, "small"),
        ],
    )
    @pytest.mark.parametrize("shards", ["unequal", "short"])
    def test_whole_run_equals_the_reference_client_phase(
        self, method, fedavg_tier, shards, monkeypatch
    ):
        train, test = synth_train_and_test(4, 60, 6, 0.3, seed=1, test_per_class=10)
        batch = dict(batch_size=5) if shards == "unequal" else dict(batch_size=16, min_per_client=6)
        cfg = dict(
            method=method, n_clients=7, rounds=4, warmup_rounds=1, local_epochs=2, lr=0.05,
            alpha_dir=0.3, R=2, seed=0, fedavg_tier=fedavg_tier, **batch,
        )
        state = init_federation(FederationConfig(**cfg), train, test)
        reference = init_federation(FederationConfig(**cfg), train, test)
        sizes = [len(c.shard.train) for c in state.clients]
        B = cfg["batch_size"]
        if shards == "unequal":
            assert len({n // B for n in sizes}) > 2 and len({n % B for n in sizes}) > 2, sizes
            # one tail step trains short batches that sit at different positions
            assert any(
                len(set(positions[:, 0].tolist())) > 1
                for tier in state.tiers
                for _, positions in tier.tails
            )
        else:
            # some client has no full batch, so it trains only in tail steps
            assert min(sizes) < B, sizes
        for _ in range(cfg["rounds"]):
            got = run_round(state)
            with monkeypatch.context() as patch:
                patch.setattr(federation, "client_train", reference_client_phase)
                want = run_round(reference)
            self.assert_same_report(got, want)
            assert np.array_equal(state.cache.logits, reference.cache.logits)
            for k, (a, b) in enumerate(zip(state.clients, reference.clients)):
                assert np.array_equal(a.model.params, b.model.params), k
        if method in (Method.FEDDISTILL, Method.FEDCACHE, Method.HKS):
            assert got.mean_kd > 0.0


class TestMethodIsolation:
    def test_hks_never_reads_labels_server_side(self, dataset):
        train, test = dataset
        cfg = tiny_cfg(Method.HKS, rounds=4, warmup_rounds=1)
        result = run_experiment(cfg, train, test)
        assert result.state.cache.label_reads == 0
        assert result.state.cache.labels is None


class TestAblationIdentity:
    def test_hks_with_zero_kd_weight_matches_local_only_bitwise(self, dataset):
        train, test = dataset
        kd_off = KdConfig(temperature=3.0, alpha_kd=0.0)
        cfg_hks = tiny_cfg(Method.HKS, rounds=4, warmup_rounds=1, kd=kd_off)
        cfg_local = tiny_cfg(Method.LOCAL_ONLY, rounds=4, warmup_rounds=1, kd=kd_off)
        state_h = init_federation(cfg_hks, train, test)
        state_l = init_federation(cfg_local, train, test)
        for _ in range(4):
            run_round(state_h)
            run_round(state_l)
            for ch, cl in zip(state_h.clients, state_l.clients):
                assert np.array_equal(ch.model.params, cl.model.params)


class TestGlobalAccuracyRecomputation:
    @pytest.mark.parametrize("method", list(Method))
    def test_global_accuracy_matches_final_models(self, dataset, method):
        # fedavg scores its one merged model once and reports that value for
        # every client
        train, test = dataset
        state = init_federation(tiny_cfg(method, rounds=3, warmup_rounds=1), train, test)
        for _ in range(state.config.rounds):
            report = run_round(state)
            recomputed = [evaluate(client.model, test) for client in state.clients]
            np.testing.assert_array_equal(np.array(recomputed), report.global_acc_per_client)


class TestRunExperiment:
    def test_a_run_has_at_least_one_round(self):
        # so every run's summary holds numbers
        with pytest.raises(ConfigError, match="'rounds'"):
            tiny_cfg(rounds=0, warmup_rounds=0)

    def test_reports_are_deterministic(self, dataset):
        train, test = dataset
        cfg = tiny_cfg(Method.HKS, rounds=4, warmup_rounds=1)
        a = run_experiment(cfg, train, test)
        b = run_experiment(cfg, train, test)
        for ra, rb in zip(a.reports, b.reports):
            assert np.array_equal(ra.per_client_local_acc, rb.per_client_local_acc)
            assert ra.mean_ce == rb.mean_ce
            assert ra.mean_kd == rb.mean_kd

    def test_all_granularity_averages_path_losses(self, dataset):
        # with alpha_kd > 0 every granularity trains through warm-up cleanly
        train, test = dataset
        for granularity in Granularity:
            cfg = tiny_cfg(Method.HKS, rounds=4, warmup_rounds=1, granularity=granularity)
            result = run_experiment(cfg, train, test)
            assert len(result.reports) == 4
