import numpy as np
import pytest

from hks.data import synth_train_and_test
from hks.errors import InvalidInputError, StaleHierarchyError
from hks.federation import (
    FederationConfig,
    Method,
    client_train,
    init_federation,
    run_experiment,
    run_round,
)
from hks.knowledge import Granularity
from hks.metrics import evaluate
from hks.models import CapacityTier
from hks.numerics import KdConfig


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


class TestInit:
    def test_mod3_tier_counts_for_twenty_clients(self):
        train, test = synth_train_and_test(4, 200, 4, 0.5, seed=1)
        cfg = tiny_cfg(Method.HKS, n_clients=20, alpha_dir=1000.0)
        state = init_federation(cfg, train, test)
        tiers = [c.tier for c in state.clients]
        assert tiers.count(CapacityTier.SMALL) == 7
        assert tiers.count(CapacityTier.MEDIUM) == 7
        assert tiers.count(CapacityTier.LARGE) == 6

    def test_cache_covers_every_training_sample(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(), train, test)
        total_train = sum(len(c.shard.train) for c in state.clients)
        assert len(state.cache) == total_train
        assert len(state.index) == total_train

    def test_init_is_deterministic(self, dataset):
        train, test = dataset
        a = init_federation(tiny_cfg(), train, test)
        b = init_federation(tiny_cfg(), train, test)
        for ca, cb in zip(a.clients, b.clients):
            assert np.array_equal(ca.model.params, cb.model.params)
            assert np.array_equal(ca.shard.train_indices, cb.shard.train_indices)

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
            has_labels = any(r.label is not None for r in state.cache.records.values())
            assert has_labels == expect, method


class TestRunRound:
    def test_local_only_never_touches_cache(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.LOCAL_ONLY), train, test)
        before = state.cache.version
        run_round(state)
        assert state.cache.version == before
        assert all(r.round_updated is None for r in state.cache.records.values())

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
        assert all(r.round_updated is None for r in state.cache.records.values())

    def test_upload_completeness_each_round(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.FEDDISTILL), train, test)
        for t in range(3):
            run_round(state)
            assert all(r.round_updated == t for r in state.cache.records.values())

    def test_hierarchy_built_first_at_warmup_round(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.HKS, warmup_rounds=2), train, test)
        flags = [run_round(state).hierarchy_built for _ in range(4)]
        assert flags == [False, False, True, True]
        assert state.tree is not None
        assert state.tree.built_at_round == 3

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
        # the first hierarchy appears at the END of round W, so the round-W
        # client phase itself is still cross-entropy only
        train, test = dataset
        cfg = tiny_cfg(Method.HKS, rounds=4, warmup_rounds=2)
        result = run_experiment(cfg, train, test)
        assert result.reports[2].mean_kd == 0.0
        assert result.reports[2].hierarchy_built
        assert result.reports[3].mean_kd > 0.0

    def test_stale_tree_after_warmup_raises(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.HKS, rounds=6, warmup_rounds=1), train, test)
        for _ in range(3):
            run_round(state)
        state.tree = None
        with pytest.raises(StaleHierarchyError):
            run_round(state)

    def test_same_round_tree_rejected_as_snapshot(self, dataset):
        train, test = dataset
        state = init_federation(tiny_cfg(Method.HKS, rounds=6, warmup_rounds=1), train, test)
        for _ in range(3):
            run_round(state)
        state.tree.built_at_round = state.round  # violates the round barrier
        with pytest.raises(StaleHierarchyError):
            client_train(state.clients[0], state, state.round)


class TestMethodIsolation:
    def test_hks_never_reads_labels_server_side(self, dataset):
        train, test = dataset
        cfg = tiny_cfg(Method.HKS, rounds=4, warmup_rounds=1)
        result = run_experiment(cfg, train, test)
        assert result.state.cache.label_reads == 0
        assert all(r.label is None for r in result.state.cache.records.values())


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
