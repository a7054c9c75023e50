import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hks.errors import InvalidInputError
from hks.federation import FederationConfig
from hks.numerics import teacher_table, tempered_softmax

from reference_oracles import (
    ce_grad,
    cross_entropy,
    finite_diff,
    kd_grad,
    kd_loss,
    log_softmax_rows,
    reference_teacher_table,
    sgd_step,
    softmax_rows,
    softmax_t,
)

finite_logits = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=10
)


class TestSoftmaxT:
    def test_symmetric_two_class(self):
        np.testing.assert_allclose(softmax_t([0.0, 0.0], 1.0), [0.5, 0.5], atol=1e-12)

    def test_symmetric_three_class_high_temperature(self):
        np.testing.assert_allclose(softmax_t([2.0, 2.0, 2.0], 5.0), np.full(3, 1 / 3), atol=1e-12)

    def test_closed_form(self):
        np.testing.assert_allclose(softmax_t([math.log(3), 0.0], 1.0), [0.75, 0.25], atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            softmax_t([np.nan, 0.0], 1.0)
        with pytest.raises(InvalidInputError):
            softmax_t([np.inf, 0.0], 1.0)

    def test_rejects_bad_temperature(self):
        with pytest.raises(InvalidInputError):
            softmax_t([0.0, 1.0], 0.0)

    def test_no_overflow_for_huge_logits(self):
        p = softmax_t([1e4, -1e4], 1.0)
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)

    @given(z=finite_logits, temperature=st.floats(min_value=0.1, max_value=20))
    def test_sums_to_one(self, z, temperature):
        p = softmax_t(z, temperature)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p >= 0)

    @given(z=finite_logits, shift=st.floats(min_value=-50, max_value=50))
    def test_shift_invariance(self, z, shift):
        base = softmax_t(z, 2.0)
        shifted = softmax_t(np.asarray(z) + shift, 2.0)
        np.testing.assert_allclose(base, shifted, atol=1e-9)


def logit_blocks():
    """(logits, mask, temperature) for the student shapes a training step
    softens: (B, C) and stacked (K, B, C) blocks at T = 0.5, 1 and 3 with
    a random row mask, then logits of +-1e3 and +-1e4, where the shifted
    exponents underflow (to 0 at 1e4)."""
    rng = np.random.default_rng(13)
    for shape in ((1, 2), (7, 3), (64, 10), (3, 5, 4), (6, 32, 10)):
        for temperature in (0.5, 1.0, 3.0):
            logits = rng.normal(scale=4.0, size=shape)
            mask = rng.random(shape[:-1]) < 0.6
            yield pytest.param(logits, mask, temperature, id=f"{'x'.join(map(str, shape))}-T{temperature}")
    for scale in (1e3, 1e4):
        for shape in ((16, 10), (4, 8, 10)):
            logits = rng.choice([-scale, scale], size=shape) * rng.random(shape)
            logits[..., 0] = scale
            mask = rng.random(shape[:-1]) < 0.5
            for temperature in (0.5, 1.0, 3.0):
                yield pytest.param(
                    logits, mask, temperature, id=f"pm{scale:.0e}-{'x'.join(map(str, shape))}-T{temperature}"
                )


class TestTemperedSoftmax:
    @pytest.mark.parametrize("logits, mask, temperature", logit_blocks())
    def test_matches_two_pass_oracle_bit_for_bit(self, logits, mask, temperature):
        P, log_P = tempered_softmax(logits, temperature)
        assert np.array_equal(P, softmax_rows(logits, temperature))
        assert np.array_equal(log_P, log_softmax_rows(logits / temperature))
        assert np.array_equal(P[mask], softmax_rows(logits[mask], temperature))
        if temperature == 1.0:
            assert np.array_equal(log_P, log_softmax_rows(logits))
        assert np.isfinite(log_P).all()

    @pytest.mark.parametrize("temperature", [1.0, 3.0])
    def test_input_is_never_written_or_shared(self, temperature):
        # T == 1 skips the divide; a training step still edits P in place and
        # uploads the logits it was given, so neither result may alias them
        Z = np.random.default_rng(3).normal(scale=4.0, size=(2, 5, 4))
        before = Z.copy()
        P, log_P = tempered_softmax(Z, temperature)
        assert not np.shares_memory(P, Z) and not np.shares_memory(log_P, Z)
        P -= 1.0
        log_P -= 1.0
        assert np.array_equal(Z, before)


def teacher_blocks():
    """(logits, mask, temperature) blocks of the shapes a round's teachers
    take: random masks with one row that has no valid teacher and one whose
    rows are all valid, then logits of +-1e3 and +-1e4 at T = 3, where the
    shifted exponents underflow (to 0 at 1e4)."""
    rng = np.random.default_rng(12)
    for n, depth, n_classes in ((2, 1, 2), (9, 3, 4), (40, 27, 10), (25, 36, 10)):
        for temperature in (0.5, 1.0, 3.0):
            logits = rng.normal(scale=4.0, size=(n, depth, n_classes))
            mask = rng.random((n, depth)) < 0.6
            mask[0] = False
            mask[-1] = True
            yield pytest.param(logits, mask, temperature, id=f"{n}x{depth}x{n_classes}-T{temperature}")
    for scale in (1e3, 1e4):
        logits = rng.choice([-scale, scale], size=(12, 8, 10)) * rng.random((12, 8, 10))
        logits[:, :, 0] = scale
        mask = rng.random((12, 8)) < 0.5
        mask[0] = False
        mask[-1] = True
        yield pytest.param(logits, mask, 3.0, id=f"pm{scale:.0e}-T3")


class TestTeacherTable:
    @pytest.mark.parametrize("logits, mask, temperature", teacher_blocks())
    def test_matches_two_pass_oracle_bit_for_bit(self, logits, mask, temperature):
        for d in range(logits.shape[1]):
            table = teacher_table(logits[:, d], mask[:, d], temperature)
            expected = reference_teacher_table(logits[:, d : d + 1], mask[:, d : d + 1], temperature)
            assert np.array_equal(table.q, expected.q)
            assert np.array_equal(table.h, expected.h)
            assert np.array_equal(table.has, expected.has)
            assert not table.has[0] and table.has[-1]
            assert np.isfinite(table.h).all()

    def test_rows_without_a_teacher_are_zero_whatever_their_logits(self):
        logits = np.array([[1.0, 2.0], [np.inf, np.nan], [-3.0, 5.0]])
        has = np.array([True, False, True])
        with np.errstate(all="raise"):
            table = teacher_table(logits, has, 3.0)
        assert (table.q[1] == 0.0).all() and table.h[1] == 0.0
        expected = teacher_table(logits[[0, 2]], has[[0, 2]], 3.0)
        assert np.array_equal(table.q[[0, 2]], expected.q)
        assert np.array_equal(table.h[[0, 2]], expected.h)


class TestCrossEntropy:
    def test_uniform_ten_class(self):
        z = np.zeros(10)
        for y in (0, 3, 9):
            assert cross_entropy(z, y) == pytest.approx(math.log(10), abs=1e-12)

    def test_saturated_correct_class(self):
        assert cross_entropy([50.0, 0.0], 0) < 1e-9

    def test_closed_form(self):
        assert cross_entropy([0.0, math.log(3)], 0) == pytest.approx(math.log(4), abs=1e-12)

    def test_out_of_range_label(self):
        with pytest.raises(IndexError):
            cross_entropy([0.0, 1.0], 2)
        with pytest.raises(IndexError):
            cross_entropy([0.0, 1.0], -1)

    @given(z=finite_logits)
    def test_nonnegative(self, z):
        assert cross_entropy(z, 0) >= 0.0


class TestKdLoss:
    def test_identical_logits_give_zero(self):
        cfg = FederationConfig(temperature=4.0, alpha_kd=1.0)
        z = np.array([1.0, -2.0, 0.5])
        assert kd_loss(z, z, cfg) == 0.0

    def test_hand_computed_value(self):
        # q_t = [0.75, 0.25], q_s = [0.5, 0.5] at T=1
        cfg = FederationConfig(temperature=1.0, alpha_kd=1.0)
        z_t = [math.log(3), 0.0]
        z_s = [0.0, 0.0]
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert kd_loss(z_s, z_t, cfg) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.130812, abs=1e-6)

    def test_kl_carries_t_squared_at_t2(self):
        # q_t = [sqrt(3), 1] / (sqrt(3) + 1) and q_s = [0.5, 0.5] at T=2
        cfg = FederationConfig(temperature=2.0, alpha_kd=1.0)
        z_s, z_t = [0.0, 0.0], [math.log(3), 0.0]
        q_t = np.array([math.sqrt(3), 1.0]) / (math.sqrt(3) + 1.0)
        kl = float(q_t @ np.log(2.0 * q_t))
        assert kd_loss(z_s, z_t, cfg) == pytest.approx(4.0 * kl, rel=1e-12)

    def test_shape_mismatch(self):
        cfg = FederationConfig()
        with pytest.raises(InvalidInputError, match="student/teacher length mismatch"):
            kd_loss([0.0, 1.0], [0.0, 1.0, 2.0], cfg)

    @given(
        z_s=finite_logits,
        z_t=finite_logits,
        temperature=st.floats(min_value=0.5, max_value=10),
    )
    def test_nonnegative_and_zero_iff_equal_distributions(self, z_s, z_t, temperature):
        n = min(len(z_s), len(z_t))
        z_s, z_t = z_s[:n], z_t[:n]
        cfg = FederationConfig(temperature=temperature, alpha_kd=1.0)
        val = kd_loss(z_s, z_t, cfg)
        assert val >= 0.0
        q_s = softmax_t(z_s, temperature)
        q_t = softmax_t(z_t, temperature)
        if np.allclose(q_s, q_t, atol=1e-12):
            assert val < 1e-9
        elif val < 1e-12:
            np.testing.assert_allclose(q_s, q_t, atol=1e-5)


class TestGradients:
    def test_ce_grad_uniform(self):
        np.testing.assert_allclose(ce_grad([0.0, 0.0], 0), [-0.5, 0.5], atol=1e-12)

    def test_ce_grad_saturated(self):
        np.testing.assert_allclose(ce_grad([50.0, 0.0], 0), [0.0, 0.0], atol=1e-9)

    def test_kd_grad_zero_for_identical(self):
        cfg = FederationConfig(temperature=3.0, alpha_kd=1.0)
        z = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(kd_grad(z, z, cfg), np.zeros(3), atol=1e-12)

    @pytest.mark.parametrize("n_classes", [2, 5, 10])
    def test_ce_grad_matches_finite_differences(self, n_classes):
        rng = np.random.default_rng(100 + n_classes)
        for _ in range(20):
            z = rng.normal(scale=2.0, size=n_classes)
            y = int(rng.integers(n_classes))
            analytic = ce_grad(z, y)
            numeric = finite_diff(lambda v: cross_entropy(v, y), z)
            err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert err < 1e-5

    @pytest.mark.parametrize("n_classes", [2, 5, 10])
    def test_kd_grad_matches_finite_differences(self, n_classes):
        cfg = FederationConfig(temperature=3.0, alpha_kd=1.0)
        rng = np.random.default_rng(200 + n_classes)
        for _ in range(20):
            z_s = rng.normal(scale=2.0, size=n_classes)
            z_t = rng.normal(scale=2.0, size=n_classes)
            analytic = kd_grad(z_s, z_t, cfg)
            numeric = finite_diff(lambda v: kd_loss(v, z_t, cfg), z_s)
            err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert err < 1e-5


class TestSgdStep:
    def test_zero_gradient(self):
        np.testing.assert_array_equal(sgd_step([1.0, 2.0], [0.0, 0.0], 0.01), [1.0, 2.0])

    def test_arithmetic(self):
        np.testing.assert_allclose(sgd_step([1.0], [10.0], 0.1), [0.0], atol=1e-15)
        np.testing.assert_allclose(sgd_step([2.0, 4.0], [1.0, -1.0], 0.5), [1.5, 4.5], atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError, match="params/grads length mismatch"):
            sgd_step([1.0, 2.0], [1.0], 0.1)


class TestFiniteDiff:
    def test_quadratic(self):
        np.testing.assert_allclose(finite_diff(lambda x: float(x @ x), np.array([3.0])), [6.0], atol=1e-6)

    def test_constant(self):
        np.testing.assert_allclose(
            finite_diff(lambda x: 1.0, np.array([1.0, -2.0, 3.0])), np.zeros(3), atol=1e-12
        )

    def test_self_consistency_with_ce(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=5)
        numeric = finite_diff(lambda v: cross_entropy(v, 2), z)
        analytic = ce_grad(z, 2)
        err = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert err < 1e-5

