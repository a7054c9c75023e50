from dataclasses import astuple

import numpy as np
import pytest

from hks.errors import InvalidInputError, ShapeError
from hks.models import (
    CapacityTier,
    Model,
    aggregate_weights,
    build_model,
    fedavg_aggregate,
    forward_batch,
    train_step,
)
from hks.numerics import KdConfig, LossBreakdown

from reference_oracles import (
    batch_loss,
    finite_diff,
    one_model_loss_and_grad,
    one_model_step,
    param_count,
    reference_train_step,
    stack_of,
    stacked_table,
    table_from_lists,
)

CFG = KdConfig(temperature=3.0, alpha_kd=1.5, t_squared_scaling=True)


def small_model(seed=0, input_dim=4, n_classes=3):
    return build_model(CapacityTier.SMALL, input_dim, n_classes, seed)


def table(entries, n_classes=3):
    return table_from_lists(entries, n_classes, CFG.temperature)


class TestBuildModel:
    def test_deterministic(self):
        a = build_model(CapacityTier.MEDIUM, 6, 4, seed=42)
        b = build_model(CapacityTier.MEDIUM, 6, 4, seed=42)
        assert a.architecture_id == b.architecture_id
        assert np.array_equal(a.params, b.params)

    def test_small_param_count(self):
        m = small_model()
        assert m.params.shape[0] == (4 + 1) * 32 + (32 + 1) * 3 == 259

    def test_tier_ordering_by_size(self):
        counts = [
            build_model(tier, 8, 5, seed=0).params.shape[0]
            for tier in (CapacityTier.SMALL, CapacityTier.MEDIUM, CapacityTier.LARGE)
        ]
        assert counts[0] < counts[1] < counts[2]

    def test_param_count_helper(self):
        assert param_count((4, 32, 3)) == 259

    def test_mod3_tier_assignment(self):
        tiers = [CapacityTier.for_client(i) for i in range(6)]
        assert tiers == [
            CapacityTier.SMALL,
            CapacityTier.MEDIUM,
            CapacityTier.LARGE,
            CapacityTier.SMALL,
            CapacityTier.MEDIUM,
            CapacityTier.LARGE,
        ]


class TestForward:
    def test_zero_params_give_zero_logits(self):
        m = small_model()
        zeroed = Model(m.architecture_id, m.layer_dims, np.zeros_like(m.params))
        np.testing.assert_array_equal(forward_batch(zeroed, np.ones((1, 4))), np.zeros((1, 3)))

    def test_deterministic(self):
        m = small_model(seed=5)
        X = np.linspace(-1, 1, 8).reshape(2, 4)
        np.testing.assert_array_equal(forward_batch(m, X), forward_batch(m, X))

    def test_identity_single_layer(self):
        # one linear layer, identity weights, zero bias
        params = np.concatenate([np.eye(2).ravel(), np.zeros(2)])
        m = Model("mlp-2-2", (2, 2), params)
        np.testing.assert_allclose(forward_batch(m, np.array([[1.0, 2.0]])), [[1.0, 2.0]], atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            forward_batch(small_model(), np.ones((1, 5)))


class TestTrainBatch:
    def batch(self, rng, n=6, input_dim=4, n_classes=3):
        pairs = [(rng.normal(size=input_dim), int(rng.integers(n_classes))) for _ in range(n)]
        return np.stack([x for x, _ in pairs]), np.array([t for _, t in pairs])

    def test_zero_lr_keeps_params(self):
        rng = np.random.default_rng(0)
        m = small_model()
        new, bd, _ = one_model_step(m, *self.batch(rng), None, CFG, lr=0.0)
        np.testing.assert_array_equal(new.params, m.params)
        assert bd.ce > 0

    def test_no_teacher_means_no_kd(self):
        rng = np.random.default_rng(1)
        _, bd, _ = one_model_step(small_model(), *self.batch(rng), None, CFG, lr=0.01)
        assert bd.kd == 0.0
        assert bd.total == pytest.approx(bd.ce)

    def test_teacher_breakdown_identity(self):
        rng = np.random.default_rng(2)
        X, y = self.batch(rng)
        teachers = table([[rng.normal(size=3)] for _ in y])
        _, bd, _ = one_model_step(small_model(), X, y, teachers, CFG, lr=0.01)
        assert bd.kd > 0
        assert bd.total == pytest.approx(bd.ce + CFG.alpha_kd * bd.kd, abs=1e-9)

    def test_unavailable_entries_contribute_zero(self):
        rng = np.random.default_rng(3)
        X, y = self.batch(rng)
        new, bd, _ = one_model_step(small_model(), X, y, table([[]] * len(y)), CFG, lr=0.01)
        assert bd.kd == 0.0
        plain, _, _ = one_model_step(small_model(), X, y, None, CFG, lr=0.01)
        np.testing.assert_array_equal(new.params, plain.params)

    def test_multi_teacher_entry_averages_losses(self):
        rng = np.random.default_rng(4)
        X, y = self.batch(rng, n=1)
        t1, t2 = rng.normal(size=3), rng.normal(size=3)
        _, bd_multi, _ = one_model_step(small_model(), X, y, table([[t1, t2]]), CFG, lr=0.0)
        _, bd_a, _ = one_model_step(small_model(), X, y, table([[t1]]), CFG, lr=0.0)
        _, bd_b, _ = one_model_step(small_model(), X, y, table([[t2]]), CFG, lr=0.0)
        assert bd_multi.kd == pytest.approx((bd_a.kd + bd_b.kd) / 2, rel=1e-12)

    def test_descent_on_fixed_sample(self):
        rng = np.random.default_rng(5)
        X, y = rng.normal(size=(1, 4)), np.array([1])
        m = build_model(CapacityTier.SMALL, 4, 2, seed=9)
        _, bd0, _ = one_model_step(m, X, y, None, CFG, lr=0.0)
        for _ in range(50):
            m, _, _ = one_model_step(m, X, y, None, CFG, lr=0.1)
        _, bd_end, _ = one_model_step(m, X, y, None, CFG, lr=0.0)
        assert bd_end.ce < bd0.ce

    def test_teacher_length_mismatch(self):
        rng = np.random.default_rng(6)
        X, y = self.batch(rng, n=4)
        with pytest.raises(ShapeError):
            one_model_step(small_model(), X, y, table([[rng.normal(size=3)]] * 3), CFG, lr=0.01)

    def test_teacher_class_count_mismatch(self):
        rng = np.random.default_rng(7)
        X, y = self.batch(rng, n=2)
        teachers = table([[rng.normal(size=4)]] * 2, n_classes=4)
        with pytest.raises(ShapeError):
            one_model_step(small_model(), X, y, teachers, CFG, lr=0.01)


class TestEndToEndGradient:
    @pytest.mark.parametrize("with_teacher", [False, True])
    def test_param_gradient_matches_finite_diff(self, with_teacher):
        rng = np.random.default_rng(11 if with_teacher else 10)
        m = small_model(seed=3)
        X = rng.normal(size=(5, 4))
        y = rng.integers(3, size=5)
        teachers = table([[rng.normal(size=3)] for _ in range(5)]) if with_teacher else None
        _, grads, _ = one_model_loss_and_grad(m, X, y, teachers, CFG)

        def loss_of(params):
            probe = Model(m.architecture_id, m.layer_dims, params)
            return batch_loss(probe, X, y, teachers, CFG)

        numeric = finite_diff(loss_of, m.params)
        err = np.linalg.norm(grads - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert err < 1e-4


class TestFedavg:
    def test_identical_models_fixed_point(self):
        m = small_model(seed=1)
        out = fedavg_aggregate(stack_of(m, m), np.array([0.3, 0.7]))
        np.testing.assert_allclose(out, m.params, atol=1e-15)

    def test_arithmetic(self):
        base = Model("mlp-1-1", (1, 1), np.array([2.0, 0.0]))
        other = Model("mlp-1-1", (1, 1), np.array([4.0, 0.0]))
        out = fedavg_aggregate(stack_of(base, other), np.array([0.5, 0.5]))
        np.testing.assert_allclose(out, [3.0, 0.0])

    def test_degenerate_weights_pick_first(self):
        a, b = small_model(seed=1), small_model(seed=2)
        out = fedavg_aggregate(stack_of(a, b), np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, a.params)

    def test_sums_rows_in_row_order(self):
        models = [small_model(seed=s) for s in range(3)]
        w = aggregate_weights([10, 20, 30])
        want = np.zeros_like(models[0].params)
        for m, wk in zip(models, w):
            want += wk * m.params
        assert np.array_equal(fedavg_aggregate(stack_of(*models), w), want)

    @pytest.mark.parametrize(
        "weights, error",
        [
            ([0.5, 0.5], ShapeError),
            ([0.5, 0.25, 0.5], InvalidInputError),
            ([1.5, -0.25, -0.25], InvalidInputError),
        ],
    )
    def test_weights_must_be_one_per_row_and_a_distribution(self, weights, error):
        stack = stack_of(*(small_model(seed=s) for s in range(3)))
        with pytest.raises(error):
            fedavg_aggregate(stack, np.array(weights))

    def test_permutation_equivariance(self):
        models = [small_model(seed=s) for s in range(3)]
        w = aggregate_weights([10, 20, 30])
        out = fedavg_aggregate(stack_of(*models), w)
        perm = [2, 0, 1]
        out_p = fedavg_aggregate(stack_of(*(models[i] for i in perm)), w[perm])
        np.testing.assert_allclose(out, out_p, atol=1e-15)

    def test_weights_from_sizes(self):
        np.testing.assert_allclose(aggregate_weights([1, 3]), [0.25, 0.75])


class TestDeterminism:
    def test_identical_training_trajectories(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(8, 4))
        y = rng.integers(3, size=8)

        def run():
            m = small_model(seed=7)
            for _ in range(5):
                m, _, _ = one_model_step(m, X, y, None, CFG, lr=0.05)
            return m.params

        assert np.array_equal(run(), run())

    def test_forward_batch_matches_forward(self):
        m = small_model(seed=8)
        X = np.random.default_rng(13).normal(size=(4, 4))
        Z = forward_batch(m, X)
        for i in range(4):
            np.testing.assert_allclose(Z[i], forward_batch(m, X[i : i + 1])[0], atol=1e-12)


class TestStackedStepMatchesReference:
    """A stacked step computes each model exactly as a step of that model
    alone: parameters, logits and losses are bit-identical to the
    per-model oracle."""

    INPUT_DIM, N_CLASSES = 6, 4

    def tables(self, rng, K, B, mode):
        """Per-member (B,)-row teacher tables, or None; the members' `has`
        masks differ, and one member may have no teacher at all."""
        if mode == "none":
            return None
        tables = []
        for k in range(K):
            entries = [
                [rng.normal(scale=2.0, size=self.N_CLASSES) for _ in range(int(rng.integers(1, 3)))]
                if (b + k) % 3 != 1 else []
                for b in range(B)
            ]
            tables.append(table_from_lists(entries, self.N_CLASSES, CFG.temperature))
        return tables

    @pytest.mark.parametrize("tier", list(CapacityTier))
    @pytest.mark.parametrize("K", [1, 3, 7])
    @pytest.mark.parametrize("B", [1, 5, 8])
    @pytest.mark.parametrize("mode", ["none", "teachers", "alpha_kd=0"])
    def test_bit_identical_to_one_model_steps(self, tier, K, B, mode):
        rng = np.random.default_rng([K, B, len(mode)])
        cfg = KdConfig(temperature=3.0, alpha_kd=0.0) if mode == "alpha_kd=0" else CFG
        models = [build_model(tier, self.INPUT_DIM, self.N_CLASSES, seed=k) for k in range(K)]
        stack = stack_of(*models)
        for step in range(2):
            X = rng.normal(size=(K, B, self.INPUT_DIM))
            y = rng.integers(self.N_CLASSES, size=(K, B))
            tables = self.tables(rng, K, B, mode)
            bd, Z = train_step(
                stack, X, y, None if tables is None else stacked_table(*tables), cfg, lr=0.05
            )
            for k in range(K):
                teachers = None if tables is None else tables[k]
                models[k], want, want_Z = reference_train_step(
                    models[k], X[k], y[k], teachers, cfg, 0.05
                )
                assert np.array_equal(stack.params[k], models[k].params), (step, k)
                assert np.array_equal(Z[k], want_Z), (step, k)
                got = LossBreakdown(bd.ce[k], bd.kd[k], bd.total[k])
                assert np.array_equal(astuple(got), astuple(want)), (step, k)
            if mode == "teachers":
                assert bd.kd.max() > 0.0

    def test_step_updates_only_its_own_stack(self):
        rng = np.random.default_rng(0)
        models = [small_model(seed=s) for s in range(3)]
        stack = stack_of(*models)
        before = [m.params.copy() for m in models]
        X, y = rng.normal(size=(3, 2, 4)), rng.integers(3, size=(3, 2))
        train_step(stack, X, y, None, CFG, lr=0.1)
        assert not np.array_equal(stack.params[0], before[0])
        for m, params in zip(models, before):
            assert np.array_equal(m.params, params)
