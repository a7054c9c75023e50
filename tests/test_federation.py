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
    _TAG_HNSW,
    FederationConfig,
    Method,
    child_seed,
    init_federation,
    lockstep_stacks,
    run_experiment,
    run_round,
)
from hks.knowledge import (
    Granularity,
    HnswIndex,
    KnowledgeCache,
    RandomProjectionEncoder,
    build_hierarchy,
    fedcache_neighbors,
)
from hks.metrics import evaluate
from hks.models import TIER_HIDDEN, CapacityTier, Model, forward_batch
from hks.numerics import KdConfig

from reference_oracles import (
    ReferenceHnsw,
    feddistill_class_teacher,
    mean_kd,
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


def recording_indexes(monkeypatch):
    """Collect every hash index `init_federation` builds."""
    built = []

    def build(*args, **kwargs):
        built.append(HnswIndex(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(federation, "HnswIndex", build)
    return built


def sample_hashes(state):
    """Every cache row's hash, from the config's encoder seed stream, as
    `init_federation` hashes its training samples."""
    cfg = state.config
    encoder = RandomProjectionEncoder(
        state.train.input_dim, cfg.d_hash, child_seed(cfg.seed, _TAG_ENCODER)
    )
    return encoder.encode_rows(state.train.features)


def fresh_index(state, kind=HnswIndex):
    """A new index of `kind` over the state's sample hashes, built with the
    config's settings and seed stream, as `init_federation` builds its own."""
    cfg = state.config
    index = kind(
        cfg.d_hash,
        m=cfg.hnsw_m,
        ef_construction=cfg.hnsw_ef_construction,
        ef_search=cfg.hnsw_ef_search,
        seed=child_seed(cfg.seed, _TAG_HNSW),
    )
    for h in sample_hashes(state):
        index.insert(h)
    return index


class TestInit:
    def test_mod3_tier_counts_for_twenty_clients(self):
        train, test = synth_train_and_test(4, 200, 4, 0.5, seed=1)
        cfg = tiny_cfg(Method.HKS, n_clients=20, alpha_dir=1000.0)
        state = init_federation(cfg, train, test)
        tiers = [c.tier for c in state.clients]
        assert tiers.count(CapacityTier.SMALL) == 7
        assert tiers.count(CapacityTier.MEDIUM) == 7
        assert tiers.count(CapacityTier.LARGE) == 6

    def test_cache_covers_every_training_sample(self, dataset, monkeypatch):
        # only fedcache reads the hash index, so only fedcache builds it
        train, test = dataset
        for method in Method:
            built = recording_indexes(monkeypatch)
            state = init_federation(tiny_cfg(method), train, test)
            total_train = sum(len(c.shard.train) for c in state.clients)
            assert len(state.cache) == total_train
            if method is Method.FEDCACHE:
                assert [len(index) for index in built] == [total_train]
            else:
                assert built == [], method

    @pytest.mark.parametrize("global_test", [None, "empty"])
    def test_global_test_set_required_before_any_training(self, dataset, global_test, monkeypatch):
        train, _ = dataset
        if global_test == "empty":
            global_test = train.subset([])
        trained = []
        monkeypatch.setattr(federation, "client_train", lambda *a: trained.append(a))
        with pytest.raises(ConfigError, match="global test set"):
            run_experiment(tiny_cfg(), train, global_test)
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
        assert {c.tier for c in state.clients} == {CapacityTier.SMALL}

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
        for method in Method:
            built = recording_indexes(monkeypatch)
            state = init_federation(tiny_cfg(method, d_hash=5), train, test)
            assert not hasattr(state.cache, "hashes")
            if method is Method.FEDCACHE:
                (index,) = built
                assert index.dim == 5 and len(index) == len(state.cache)
                np.testing.assert_allclose(np.linalg.norm(sample_hashes(state), axis=1), 1.0)
                assert state.neighbors.shape == (len(state.cache), state.config.R)
            else:
                assert built == [], method
                assert state.neighbors is None, method

    def test_cache_rows_are_client_blocks_in_local_index_order(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.FEDDISTILL), train, test)
        cache = state.cache
        start = 0
        for client in state.clients:
            rows = cache.rows[client.client_id]
            assert rows == slice(start, start + len(client.shard.train))
            assert (cache.owner[rows] == client.client_id).all()
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
    def test_local_only_never_touches_cache(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.LOCAL_ONLY), train, test)
        before = state.cache.logits.copy()
        run_round(state)
        assert np.array_equal(state.cache.logits, before)
        assert state.cache.round == -1

    def test_fedavg_broadcast_synchronizes_clients(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.FEDAVG), train, test)
        run_round(state)
        base = state.clients[0].model.params
        for c in state.clients[1:]:
            assert np.array_equal(c.model.params, base)

    def test_fedavg_does_not_write_cache(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.FEDAVG), train, test)
        run_round(state)
        assert state.cache.round == -1

    def test_upload_completeness_each_round(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.FEDDISTILL), train, test)
        assert state.cache.round == -1
        for t in range(3):
            run_round(state)
            assert state.cache.round == t

    @pytest.mark.parametrize("method", [Method.FEDDISTILL, Method.FEDCACHE, Method.HKS])
    def test_one_upload_per_round(self, dataset, method, monkeypatch):
        train, test = dataset
        update = KnowledgeCache.update_logits
        calls = []

        def counted(cache, Z, round_index):
            calls.append((round_index, Z.shape))
            return update(cache, Z, round_index)

        monkeypatch.setattr(KnowledgeCache, "update_logits", counted)
        result = run_experiment(tiny_cfg(method, rounds=3, warmup_rounds=1), train, test)
        shape = (len(result.state.cache), result.state.train.n_classes)
        assert calls == [(t, shape) for t in range(3)]

    @pytest.mark.parametrize("method", [Method.FEDDISTILL, Method.FEDCACHE, Method.HKS])
    def test_no_table_before_the_first_upload(self, dataset, method):
        train, test = dataset
        state = init_federation(tiny_cfg(method, warmup_rounds=0), train, test)
        # fedcache reads labels only to query its neighbours, at init
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
            contents = copy.deepcopy((state.neighbors, state.cache.logits, state.cache.round))
            table = tables(state, round_index)
            assert vars(state).keys() == fields.keys()
            for key, value in vars(state).items():
                assert value is fields[key], key
            neighbors, logits, cache_round = contents
            assert (state.neighbors is None) == (neighbors is None)
            assert neighbors is None or np.array_equal(state.neighbors, neighbors)
            assert np.array_equal(state.cache.logits, logits)
            assert state.cache.round == cache_round
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

    @pytest.mark.parametrize("rounds,warmup_rounds", [(4, 0), (4, 2), (4, 3), (4, 4), (0, 0)])
    def test_one_tree_per_distilling_round_and_none_after_the_last(
        self, dataset, rounds, warmup_rounds, monkeypatch
    ):
        train, test = dataset
        build = federation.build_hierarchy
        built_in = []

        def counting(cache, *args, **kwargs):
            # the round a tree serves follows the last upload it clusters
            built_in.append(cache.round + 1)
            return build(cache, *args, **kwargs)

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


class RecordingIndex:
    """Index wrapper that appends every id a query's predicate is asked about."""

    def __init__(self, index, calls):
        self.index, self.calls = index, calls

    def query(self, h, k, predicate):
        def recorded(other):
            self.calls.append(other)
            return predicate(other)

        return self.index.query(h, k, recorded)


class TestFedCacheNeighbourTable:
    def run_recording(self, state, monkeypatch):
        """Run every round; per round, the tables the client phase read and
        each sample's teacher from a fresh index query at the round's start."""
        seen = record_tables(monkeypatch)
        expected = {}
        index, hashes = fresh_index(state), sample_hashes(state)
        for t in range(state.config.rounds):
            neighbours = fedcache_neighbors(state.cache, index, hashes, state.config.R)
            for row in range(len(state.cache)):
                expected[(t, row)] = neighbour_teacher(state.cache, neighbours[row])
            run_round(state)
        return seen, expected

    @pytest.mark.parametrize("warmup_rounds", [0, 2])
    def test_table_teacher_matches_fresh_query_every_round(self, dataset, warmup_rounds, monkeypatch):
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
    def test_index_queried_once_per_sample_per_run(self, dataset, warmup_rounds, monkeypatch):
        train, test = dataset
        query = HnswIndex.query
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(args)
            return query(self, *args, **kwargs)

        monkeypatch.setattr(HnswIndex, "query", counted)
        cfg = tiny_cfg(Method.FEDCACHE, rounds=5, warmup_rounds=warmup_rounds)
        result = run_experiment(cfg, train, test)
        assert len(calls) == len(result.state.cache)
        assert len(result.state.neighbors) == len(result.state.cache)

    def test_init_table_equals_a_fresh_query(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.FEDCACHE, R=3), train, test)
        table = fedcache_neighbors(state.cache, fresh_index(state), sample_hashes(state), 3)
        np.testing.assert_array_equal(state.neighbors, table)
        assert state.neighbors.dtype == table.dtype

    def test_benchmark_scale_table_matches_the_reference_index(self):
        # the fedcache benchmark's federation: 638 indexed samples, R=4
        rc = parse_config(
            overrides=dict(synthetic="4,200,16,0.3", method="fedcache", R=4, n_clients=10, alpha_dir=0.5)
        )
        train, test = load_experiment_data(rc)
        state = init_federation(rc.federation, train, test)
        index, reference = fresh_index(state), fresh_index(state, ReferenceHnsw)
        assert type(index) is HnswIndex and type(reference) is ReferenceHnsw
        assert index.neighbors == reference.neighbors
        assert index.levels == reference.levels
        assert index.entry_point == reference.entry_point

        cache, hashes = state.cache, sample_hashes(state)
        assert len(cache) == 638
        cache.update_logits(np.zeros_like(cache.logits), 0)

        def neighbours(index):
            calls, reads = [], cache.label_reads
            table = fedcache_neighbors(cache, RecordingIndex(index, calls), hashes, rc.federation.R)
            return table, calls, cache.label_reads - reads

        table, calls, reads = neighbours(index)
        reference_table, reference_calls, reference_reads = neighbours(reference)
        np.testing.assert_array_equal(table, reference_table)
        np.testing.assert_array_equal(state.neighbors, table)
        assert calls == reference_calls
        assert reads == reference_reads
        assert (table >= 0).all()

    def test_every_label_read_happens_at_init(self, dataset, monkeypatch):
        train, test = dataset
        cfg = tiny_cfg(Method.FEDCACHE, rounds=4, warmup_rounds=2)
        state = init_federation(cfg, train, test)
        # one query pass over a fresh index reads as many labels as init did
        reads = state.cache.label_reads
        fedcache_neighbors(state.cache, fresh_index(state), sample_hashes(state), cfg.R)
        assert state.cache.label_reads == 2 * reads > 0
        seen = record_tables(monkeypatch)
        for _ in range(cfg.rounds):
            run_round(state)
            assert state.cache.label_reads == 2 * reads
        assert [t for (t, _), table in seen.items() if table is not None] == [2] * 3 + [3] * 3


def probe_kd(teachers, z_s, cfg):
    """The KD loss and its student-logit gradient that a training step takes
    from a one-row teacher table, read through an identity model whose
    logits are its inputs (its bias gradient is the logit gradient)."""
    C = z_s.shape[0]
    params = np.concatenate([np.eye(C).ravel(), np.zeros(C)])
    probe = Model(f"mlp-{C}-{C}", (C, C), params)
    X, y, unit = z_s[None], np.array([0]), replace(cfg, alpha_kd=1.0)
    bd, grads, _ = one_model_loss_and_grad(probe, X, y, teachers, unit)
    _, ce_grads, _ = one_model_loss_and_grad(probe, X, y, None, unit)
    return bd.kd, (grads - ce_grads)[C * C :]


def oracle_teachers(state):
    """Every cache row's teacher logits from the per-sample oracles, as the
    round about to run would read them; None when the method has none yet."""
    cfg, cache = state.config, state.cache
    rows = range(len(cache))
    if cache.round < 0:
        return None
    if cfg.method is Method.HKS:
        if state.round <= cfg.warmup_rounds:
            return None
        tree = build_hierarchy(
            cache, state.train.n_classes, cfg.linkage, cfg.cluster_space, cfg.kd.temperature
        )
        return [path_teacher(cache, tree, row, cfg.granularity, cfg.exclude_self) for row in rows]
    if cfg.method is Method.FEDDISTILL:
        return [feddistill_class_teacher(cache, row) for row in rows]
    neighbours = fedcache_neighbors(cache, fresh_index(state), sample_hashes(state), cfg.R)
    return [neighbour_teacher(cache, neighbours[row]) for row in rows]


ORACLE_CASES = [
    *[(Method.HKS, g, e, "logits") for g in Granularity for e in (True, False)],
    (Method.HKS, Granularity.ALL, True, "soft"),
    (Method.FEDDISTILL, Granularity.ALL, True, "logits"),
    (Method.FEDCACHE, Granularity.ALL, True, "logits"),
]


class TestTeacherTableOracle:
    @pytest.mark.parametrize("warmup_rounds", [0, 2])
    @pytest.mark.parametrize("method,granularity,exclude_self,space", ORACLE_CASES)
    def test_per_sample_kd_matches_oracle_every_round(
        self, dataset, method, granularity, exclude_self, space, warmup_rounds, monkeypatch
    ):
        train, test = dataset
        cfg = tiny_cfg(
            method,
            rounds=4,
            warmup_rounds=warmup_rounds,
            granularity=granularity,
            exclude_self=exclude_self,
            cluster_space=space,
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
            bd, Z = step(*args)
            Z = Z.copy()
            Z[:, 0, 0] = -np.inf
            return bd, Z

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
        assert [state.clients[i].tier for i in (1, 3)] == [CapacityTier.MEDIUM, CapacityTier.SMALL]
        with pytest.raises(DivergenceError, match="non-finite parameters at client 1 in round 0"):
            run_round(state)


class TestTierStacks:
    """Each tier's stack holds its clients' models for the whole run: every
    client's model is a view of its stack row."""

    @staticmethod
    def assert_models_are_stack_rows(state):
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
                assert tier.stack.layer_dims[1:-1] == TIER_HIDDEN[client.tier]
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

        def recording_aggregate(stack, weights):
            merged.append((stack.params.copy(), weights, aggregate(stack, weights)))
            return merged[-1][2]

        monkeypatch.setattr(federation, "client_train", recording_train)
        monkeypatch.setattr(federation, "fedavg_aggregate", recording_aggregate)
        run_round(state)
        ((rows, weights, vector),) = merged
        # the trained rows are averaged in client-id order
        by_id = np.argsort(tier.members)
        assert np.array_equal(rows, trained[0][by_id])
        sizes = [len(c.shard.train) for c in state.clients]
        assert np.array_equal(weights, np.array(sizes) / sum(sizes))
        assert not np.array_equal(trained[0][0], trained[0][1])
        for row in tier.stack.params:
            assert np.array_equal(row, vector)
        self.assert_models_are_stack_rows(state)


class TestLockstepStacks:
    def test_one_shard_is_cut_into_full_batches_then_the_rest(self):
        assert lockstep_stacks(np.array([10]), 8) == [(0, 0, 1, 8), (8, 0, 1, 2)]

    def test_full_batches_then_one_stack_per_short_size(self):
        assert lockstep_stacks(np.array([10, 10, 9, 6, 2]), 4) == [
            (0, 0, 4, 4), (0, 4, 5, 2),
            (4, 0, 3, 4), (4, 3, 4, 2),
            (8, 0, 2, 2), (8, 2, 3, 1),
        ]

    @pytest.mark.parametrize("seed", range(5))
    def test_every_row_gets_its_own_batches_in_order(self, seed):
        rng = np.random.default_rng(seed)
        sizes = np.sort(rng.integers(1, 40, size=int(rng.integers(1, 9))))[::-1]
        batch_size = int(rng.integers(1, 9))
        seen = [[] for _ in sizes]
        for start, first, end, width in lockstep_stacks(sizes, batch_size):
            assert 0 <= first < end <= len(sizes)
            for row in range(first, end):
                seen[row].append((start, width))
        for row, n in enumerate(sizes):
            want = [(i, min(batch_size, n - i)) for i in range(0, n, batch_size)]
            assert seen[row] == want


class TestClientPhaseMatchesReference:
    """The lockstep client phase leaves every client where training it alone,
    one model at a time, would: over whole runs with unequal shards, so short
    batches fall at different positions, and all three tiers."""

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
    def test_whole_run_equals_the_reference_client_phase(self, method, fedavg_tier, monkeypatch):
        train, test = synth_train_and_test(4, 60, 6, 0.3, seed=1, test_per_class=10)
        cfg = dict(
            method=method, n_clients=7, rounds=4, warmup_rounds=1, local_epochs=2, lr=0.05,
            batch_size=5, alpha_dir=0.3, R=2, seed=0, fedavg_tier=fedavg_tier,
        )
        state = init_federation(FederationConfig(**cfg), train, test)
        reference = init_federation(FederationConfig(**cfg), train, test)
        sizes = [len(c.shard.train) for c in state.clients]
        assert len({n // 5 for n in sizes}) > 2 and len({n % 5 for n in sizes}) > 2, sizes
        for _ in range(cfg["rounds"]):
            got = run_round(state)
            with monkeypatch.context() as patch:
                patch.setattr(federation, "client_train", reference_client_phase)
                want = run_round(reference)
            self.assert_same_report(got, want)
            assert np.array_equal(state.cache.logits, reference.cache.logits)
            for a, b in zip(state.clients, reference.clients):
                assert np.array_equal(a.model.params, b.model.params), a.client_id
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
        kd_off = KdConfig(temperature=3.0, alpha_kd=0.0, t_squared_scaling=True)
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
    def test_global_accuracy_matches_final_models(self, dataset):
        train, test = dataset
        result = run_experiment(tiny_cfg(Method.HKS, rounds=3, warmup_rounds=1), train, test)
        recomputed = [evaluate(client.model, test) for client in result.state.clients]
        np.testing.assert_array_equal(np.array(recomputed), result.reports[-1].global_acc_per_client)


class TestRunExperiment:
    def test_zero_rounds_flags_undefined_metrics(self, dataset):
        train, test = dataset
        result = run_experiment(tiny_cfg(rounds=0, warmup_rounds=0), train, test)
        assert result.reports == []
        assert result.summary.maua is None
        assert result.summary.rounds_run == 0

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
            assert result.summary.rounds_run == 4
