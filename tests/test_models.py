from dataclasses import replace

import numpy as np
import pytest

from hks.errors import InvalidInputError
from hks.models import (
    CapacityTier,
    Model,
    build_model,
    fedavg_aggregate,
    forward_batch,
    train_step,
)
from hks.numerics import KdConfig

from reference_oracles import (
    batch_loss,
    batch_loss_finite_diff,
    finite_diff,
    one_model_loss_and_grad,
    one_model_step,
    param_count,
    reference_train_step,
    softmax_rows,
    stack_of,
    stacked_table,
    table_from_lists,
)

CFG = KdConfig(temperature=3.0, alpha_kd=1.5)


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

    def test_architecture_id_names_the_layer_sizes(self):
        # computed from layer_dims, so a view of stack rows names its tier too
        m = build_model(CapacityTier.MEDIUM, 6, 4, seed=0)
        assert m.architecture_id == "mlp-6-64-32-4"
        stack = stack_of(m, m)
        assert replace(stack, params=stack.params[:1]).architecture_id == "mlp-6-64-32-4"

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
        zeroed = Model(m.layer_dims, np.zeros_like(m.params))
        np.testing.assert_array_equal(forward_batch(zeroed, np.ones((1, 4))), np.zeros((1, 3)))

    def test_deterministic(self):
        m = small_model(seed=5)
        X = np.linspace(-1, 1, 8).reshape(2, 4)
        np.testing.assert_array_equal(forward_batch(m, X), forward_batch(m, X))

    def test_identity_single_layer(self):
        # one linear layer, identity weights, zero bias
        params = np.concatenate([np.eye(2).ravel(), np.zeros(2)])
        m = Model((2, 2), params)
        np.testing.assert_allclose(forward_batch(m, np.array([[1.0, 2.0]])), [[1.0, 2.0]], atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError, match=r"expected \(B, 4\) inputs, got \(1, 5\)"):
            forward_batch(small_model(), np.ones((1, 5)))


class TestLayerViews:
    """Each `Model` builds its per-layer weight and bias views of `params`
    once; every forward and backward pass reads them."""

    def test_views_share_memory_with_params(self):
        m = build_model(CapacityTier.LARGE, 6, 4, seed=0)
        stack = stack_of(m, build_model(CapacityTier.LARGE, 6, 4, seed=1))
        for model, lead in ((m, ()), (stack, (2,)), (replace(stack, params=stack.params[1:]), (1,))):
            assert len(model.layers) == len(model.layer_dims) - 1
            for (W, b), i, o in zip(model.layers, model.layer_dims[:-1], model.layer_dims[1:]):
                assert W.shape == (*lead, i, o) and b.shape == (*lead, 1, o)
                assert np.shares_memory(W, model.params) and np.shares_memory(b, model.params)
            assert model.layers is model.layers

    def test_views_see_an_in_place_train_step(self):
        rng = np.random.default_rng(3)
        stack = stack_of(*[build_model(CapacityTier.MEDIUM, 4, 3, seed=s) for s in range(3)])
        before = [(W.copy(), b.copy()) for W, b in stack.layers]
        train_step(stack, rng.normal(size=(3, 5, 4)), rng.integers(3, size=(3, 5)), None, CFG, lr=0.1)
        fresh = replace(stack, params=stack.params.copy())
        for (W, b), (W0, b0), (want_W, want_b) in zip(stack.layers, before, fresh.layers):
            assert not np.array_equal(W, W0) and not np.array_equal(b, b0)
            assert np.array_equal(W, want_W) and np.array_equal(b, want_b)

    def test_a_replaced_model_builds_its_own_views(self):
        m = small_model(seed=2)
        built = m.layers
        other = replace(m, params=np.zeros_like(m.params))
        assert other.layers is not built
        for (W, b), (W0, b0) in zip(other.layers, built):
            assert np.shares_memory(W, other.params) and not np.shares_memory(W, m.params)
            assert not W.any() and not b.any() and W0.any()
        assert not forward_batch(other, np.ones((2, 4))).any()

    def test_forward_batch_on_one_vector_equals_the_reference(self):
        m = build_model(CapacityTier.LARGE, 4, 3, seed=6)
        rng = np.random.default_rng(6)
        X, y = rng.normal(size=(7, 4)), rng.integers(3, size=7)
        assert m.params.ndim == 1
        _, _, want = reference_train_step(m, X, y, None, CFG, 0.0)
        assert np.array_equal(forward_batch(m, X), want)


class TestTrainBatch:
    def batch(self, rng, n=6, input_dim=4, n_classes=3):
        pairs = [(rng.normal(size=input_dim), int(rng.integers(n_classes))) for _ in range(n)]
        return np.stack([x for x, _ in pairs]), np.array([t for _, t in pairs])

    def test_zero_lr_keeps_params(self):
        rng = np.random.default_rng(0)
        m = small_model()
        new, (ce, _), _ = one_model_step(m, *self.batch(rng), None, CFG, lr=0.0)
        np.testing.assert_array_equal(new.params, m.params)
        assert ce > 0

    def test_no_teacher_means_no_kd(self):
        rng = np.random.default_rng(1)
        m, (X, y) = small_model(), self.batch(rng)
        _, (ce, kd), _ = one_model_step(m, X, y, None, CFG, lr=0.01)
        assert kd == 0.0
        assert batch_loss(m, X, y, None, CFG) == pytest.approx(ce)

    def test_teacher_breakdown_identity(self):
        rng = np.random.default_rng(2)
        X, y = self.batch(rng)
        teachers = table([[rng.normal(size=3)] for _ in y])
        m = small_model()
        _, (ce, kd), _ = one_model_step(m, X, y, teachers, CFG, lr=0.01)
        assert kd > 0
        want = ce + CFG.alpha_kd * kd
        assert batch_loss(m, X, y, teachers, CFG) == pytest.approx(want, abs=1e-9)

    def test_unavailable_entries_contribute_zero(self):
        rng = np.random.default_rng(3)
        X, y = self.batch(rng)
        new, (_, kd), _ = one_model_step(small_model(), X, y, table([[]] * len(y)), CFG, lr=0.01)
        assert kd == 0.0
        plain, _, _ = one_model_step(small_model(), X, y, None, CFG, lr=0.01)
        np.testing.assert_array_equal(new.params, plain.params)

    def test_multi_teacher_entry_averages_losses(self):
        rng = np.random.default_rng(4)
        X, y = self.batch(rng, n=1)
        t1, t2 = rng.normal(size=3), rng.normal(size=3)
        _, (_, kd_multi), _ = one_model_step(small_model(), X, y, table([[t1, t2]]), CFG, lr=0.0)
        _, (_, kd_a), _ = one_model_step(small_model(), X, y, table([[t1]]), CFG, lr=0.0)
        _, (_, kd_b), _ = one_model_step(small_model(), X, y, table([[t2]]), CFG, lr=0.0)
        assert kd_multi == pytest.approx((kd_a + kd_b) / 2, rel=1e-12)

    def test_descent_on_fixed_sample(self):
        rng = np.random.default_rng(5)
        X, y = rng.normal(size=(1, 4)), np.array([1])
        m = build_model(CapacityTier.SMALL, 4, 2, seed=9)
        _, (ce0, _), _ = one_model_step(m, X, y, None, CFG, lr=0.0)
        for _ in range(50):
            m, _, _ = one_model_step(m, X, y, None, CFG, lr=0.1)
        _, (ce_end, _), _ = one_model_step(m, X, y, None, CFG, lr=0.0)
        assert ce_end < ce0

    def test_teacher_length_mismatch(self):
        rng = np.random.default_rng(6)
        X, y = self.batch(rng, n=4)
        with pytest.raises(InvalidInputError, match="teacher table has .* rows, batch has"):
            one_model_step(small_model(), X, y, table([[rng.normal(size=3)]] * 3), CFG, lr=0.01)

    def test_teacher_class_count_mismatch(self):
        rng = np.random.default_rng(7)
        X, y = self.batch(rng, n=2)
        teachers = table([[rng.normal(size=4)]] * 2, n_classes=4)
        with pytest.raises(InvalidInputError, match="teachers have 4 classes, model has 3"):
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
            probe = Model(m.layer_dims, params)
            return batch_loss(probe, X, y, teachers, CFG)

        numeric = finite_diff(loss_of, m.params)
        err = np.linalg.norm(grads - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert err < 1e-4

    @pytest.mark.parametrize("temperature", [0.5, 1.0, 1.1, 3.0, 7.0])
    def test_kd_term_carries_t_squared_and_its_gradient_matches(self, temperature):
        # the KD term is T^2 KL(q_t || q_s) at every temperature, and the
        # gradient's (T * T) / T factor agrees with it
        rng = np.random.default_rng([14, int(10 * temperature)])
        m = small_model(seed=5)
        X = rng.normal(size=(5, 4))
        y = rng.integers(3, size=5)
        teacher_logits = rng.normal(scale=2.0, size=(5, 3))
        cfg = KdConfig(temperature=temperature, alpha_kd=1.5)
        teachers = table_from_lists([[z] for z in teacher_logits], 3, temperature)
        (_, kd), grads, Z = one_model_loss_and_grad(m, X, y, teachers, cfg)
        q_t = softmax_rows(teacher_logits, temperature)
        q_s = softmax_rows(Z, temperature)
        kl = (q_t * np.log(q_t / q_s)).sum(axis=1).mean()
        assert kl > 1e-3
        assert kd == pytest.approx(temperature * temperature * kl, rel=1e-9)

        def loss_of(params):
            return batch_loss(Model(m.layer_dims, params), X, y, teachers, cfg)

        numeric = finite_diff(loss_of, m.params)
        err = np.linalg.norm(grads - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert err < 1e-4

    @pytest.mark.parametrize("with_teacher", [False, True])
    def test_stacked_finite_diff_matches_one_vector_at_a_time(self, with_teacher):
        rng = np.random.default_rng(13 if with_teacher else 12)
        m = small_model(seed=4)
        X = rng.normal(size=(5, 4))
        y = rng.integers(3, size=5)
        teachers = table([[rng.normal(size=3)] if i % 2 else [] for i in range(5)]) if with_teacher else None

        def loss_of(params):
            return batch_loss(Model(m.layer_dims, params), X, y, teachers, CFG)

        expected = finite_diff(loss_of, m.params)
        got = batch_loss_finite_diff(m, X, y, teachers, CFG)
        assert got.shape == m.params.shape
        assert np.linalg.norm(got - expected) <= 1e-8 * np.linalg.norm(expected)


class TestFedavg:
    def test_identical_models_fixed_point(self):
        m = small_model(seed=1)
        out = fedavg_aggregate(stack_of(m, m).params, [3, 7])
        np.testing.assert_allclose(out, m.params, atol=1e-15)

    def test_arithmetic(self):
        base = Model((1, 1), np.array([2.0, 0.0]))
        other = Model((1, 1), np.array([4.0, 0.0]))
        out = fedavg_aggregate(stack_of(base, other).params, [5, 5])
        np.testing.assert_allclose(out, [3.0, 0.0])

    def test_degenerate_weights_pick_first(self):
        a, b = small_model(seed=1), small_model(seed=2)
        out = fedavg_aggregate(stack_of(a, b).params, [4, 0])
        np.testing.assert_allclose(out, a.params)

    def test_sums_rows_in_row_order(self):
        models = [small_model(seed=s) for s in range(3)]
        sizes = np.array([10.0, 20.0, 30.0])
        want = np.zeros_like(models[0].params)
        for m, wk in zip(models, sizes / sizes.sum()):
            want += wk * m.params
        assert np.array_equal(fedavg_aggregate(stack_of(*models).params, [10, 20, 30]), want)

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ([5, 5], "3 models but 2 sizes"),
            ([6, -1, -1], "sizes must be nonnegative with positive total"),
            ([0, 0, 0], "sizes must be nonnegative with positive total"),
        ],
    )
    def test_sizes_must_be_one_per_row_with_a_positive_total(self, sizes, message):
        stack = stack_of(*(small_model(seed=s) for s in range(3)))
        with pytest.raises(InvalidInputError, match=message):
            fedavg_aggregate(stack.params, sizes)

    def test_permutation_equivariance(self):
        models = [small_model(seed=s) for s in range(3)]
        sizes = np.array([10, 20, 30])
        out = fedavg_aggregate(stack_of(*models).params, sizes)
        perm = [2, 0, 1]
        out_p = fedavg_aggregate(stack_of(*(models[i] for i in perm)).params, sizes[perm])
        np.testing.assert_allclose(out, out_p, atol=1e-15)

    def test_weights_from_sizes(self):
        np.testing.assert_allclose(fedavg_aggregate(np.eye(2), [1, 3]), [0.25, 0.75])


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
            (ce, kd), Z = train_step(
                stack, X, y, None if tables is None else stacked_table(*tables), cfg, lr=0.05
            )
            for k in range(K):
                teachers = None if tables is None else tables[k]
                models[k], want, want_Z = reference_train_step(
                    models[k], X[k], y[k], teachers, cfg, 0.05
                )
                assert np.array_equal(stack.params[k], models[k].params), (step, k)
                assert np.array_equal(Z[k], want_Z), (step, k)
                assert np.array_equal((ce[k], kd[k]), want), (step, k)
            if mode == "teachers":
                assert kd.max() > 0.0

    @pytest.mark.parametrize("tier", list(CapacityTier))
    def test_table_without_teachers_equals_no_table(self, tier):
        # a distilling round whose table gives no row a teacher trains as a
        # round without a table, bit for bit
        rng = np.random.default_rng(9)
        K, B = 3, 5
        models = [build_model(tier, self.INPUT_DIM, self.N_CLASSES, seed=k) for k in range(K)]
        empty = table_from_lists([[]] * B, self.N_CLASSES, CFG.temperature)
        with_table, without = stack_of(*models), stack_of(*models)
        for step in range(3):
            X = rng.normal(scale=3.0, size=(K, B, self.INPUT_DIM))
            y = rng.integers(self.N_CLASSES, size=(K, B))
            (ce, kd), Z = train_step(with_table, X, y, stacked_table(*[empty] * K), CFG, lr=0.05)
            (want_ce, want_kd), want_Z = train_step(without, X, y, None, CFG, lr=0.05)
            assert np.array_equal(with_table.params, without.params), step
            assert np.array_equal(Z, want_Z), step
            assert np.array_equal(ce, want_ce) and np.array_equal(kd, want_kd), step
            assert not kd.any()

    @pytest.mark.parametrize("tier", list(CapacityTier))
    @pytest.mark.parametrize("mode", ["none", "teachers"])
    @pytest.mark.parametrize("temperature", [1.0, 3.0])
    def test_returned_logits_are_the_pre_step_forward(self, tier, mode, temperature):
        # the step edits the softmax of its logits in place into the logit
        # gradient, then returns the logits as the upload: they must still be
        # each row's forward pass before the update
        rng = np.random.default_rng([len(mode), int(temperature)])
        K, B = 3, 5
        cfg = KdConfig(temperature=temperature, alpha_kd=1.5)
        stack = stack_of(*[build_model(tier, self.INPUT_DIM, self.N_CLASSES, seed=k) for k in range(K)])
        for step in range(2):
            before = stack.params.copy()
            X = rng.normal(size=(K, B, self.INPUT_DIM))
            y = rng.integers(self.N_CLASSES, size=(K, B))
            tables = self.tables(rng, K, B, mode)
            _, Z = train_step(stack, X, y, None if tables is None else stacked_table(*tables), cfg, lr=0.05)
            assert not np.array_equal(stack.params, before)
            for k in range(K):
                row = Model(stack.layer_dims, before[k])
                assert np.array_equal(Z[k], forward_batch(row, X[k])), (step, k)

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
