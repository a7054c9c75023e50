import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hks.data import Dataset
from hks.errors import DivergenceError, EmptyDatasetError, InvalidInputError
from hks.metrics import RoundReport, evaluate, maua, summarize
from hks.models import Model


def constant_model(cls: int, n_classes: int = 2, input_dim: int = 1) -> Model:
    """Zero weights, a bias spike on one class: predicts `cls` everywhere."""
    bias = np.zeros(n_classes)
    bias[cls] = 10.0
    params = np.concatenate([np.zeros(input_dim * n_classes), bias])
    return Model((input_dim, n_classes), params)


def labeled(labels, input_dim=1, n_classes=2):
    labels = np.asarray(labels, dtype=np.int64)
    feats = np.ones((len(labels), input_dim))
    return Dataset(feats, labels, n_classes)


class TestEvaluate:
    def test_constant_predictor_on_matching_data(self):
        assert evaluate(constant_model(0), labeled([0, 0, 0])) == 1.0

    def test_constant_predictor_on_mismatched_data(self):
        assert evaluate(constant_model(0), labeled([1, 1, 1])) == 0.0

    def test_hand_built_threshold_model(self):
        # logits [x, -x]: class 0 iff x >= 0 (argmax tie -> lowest index)
        params = np.array([1.0, -1.0, 0.0, 0.0])
        m = Model((1, 2), params)
        ds = Dataset(np.array([[1.0], [-1.0], [2.0], [-2.0]]), np.array([0, 1, 1, 1]), 2)
        assert evaluate(m, ds) == 0.75

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.empty((0, 1)), np.empty(0, dtype=np.int64), 2)
        with pytest.raises(EmptyDatasetError):
            evaluate(constant_model(0), empty)

    def test_argmax_tie_breaks_low(self):
        m = Model((1, 2), np.zeros(4))
        assert evaluate(m, labeled([0, 0])) == 1.0

    def test_overflowing_logits_raise_divergence_silently(self):
        # finite parameters, but 1e300 * 1e10 overflows to inf
        m = Model((1, 2), np.array([1e300, -1e300, 0.0, 0.0]))
        ds = Dataset(np.array([[1.0], [1e10]]), np.array([0, 0]), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="non-finite logits"):
                evaluate(m, ds)


class TestMaua:
    def test_spec_matrix(self):
        assert maua([[0.5, 0.7], [0.8, 0.6]]) == 0.7

    def test_single_round(self):
        assert maua([[0.2, 0.4, 0.9]]) == pytest.approx(0.5)

    def test_constant_matrix(self):
        assert maua([[0.42, 0.42], [0.42, 0.42]]) == pytest.approx(0.42)

    def test_empty_reports_rejected(self):
        with pytest.raises(InvalidInputError, match="MAUA is undefined without any round"):
            maua([])

    def test_summarize_reads_the_local_accuracy_of_round_reports(self):
        reports = [
            RoundReport(0, np.array([0.5, 0.7]), np.array([0.1, 0.1]), 1.0, 0.0, False),
            RoundReport(1, np.array([0.8, 0.6]), np.array([0.1, 0.1]), 1.0, 0.0, False),
        ]
        assert summarize(reports).maua == 0.7

    @given(
        st.lists(
            st.lists(st.floats(min_value=0, max_value=1), min_size=3, max_size=3),
            min_size=1,
            max_size=6,
        )
    )
    def test_maua_bounds_every_round_mean(self, matrix):
        value = maua(matrix)
        for row in matrix:
            assert value >= np.mean(row) - 1e-12

    @given(
        st.lists(
            st.lists(st.floats(min_value=0, max_value=1), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        ),
        st.permutations(range(4)),
    )
    @settings(max_examples=30)
    def test_invariant_to_client_permutation(self, matrix, perm):
        permuted = [[row[i] for i in perm] for row in matrix]
        assert maua(matrix) == pytest.approx(maua(permuted), abs=1e-12)

    def test_invariant_to_round_order(self):
        rows = [[0.1, 0.2], [0.9, 0.3], [0.5, 0.5]]
        assert maua(rows) == maua(rows[::-1])


class TestGlobalAccuracy:
    """A round's global accuracy is the unweighted client mean of evaluate scores."""

    def report(self, models, ds):
        accs = np.array([evaluate(m, ds) for m in models])
        return RoundReport(0, accs, accs, 0.0, 0.0, False)

    def test_shared_model(self):
        ds = labeled([0, 1, 0, 1])
        assert self.report([constant_model(0)] * 3, ds).mean_global_acc == pytest.approx(0.5)

    def test_two_clients_average(self):
        ds = labeled([0, 0, 1, 1, 1])  # constant-0 scores 0.4, constant-1 scores 0.6
        models = [constant_model(0), constant_model(1)]
        assert self.report(models, ds).mean_global_acc == pytest.approx(0.5)


class TestSummarize:
    def test_empty_is_undefined(self):
        with pytest.raises(InvalidInputError, match="MAUA is undefined without any round"):
            summarize([])

    def test_best_and_final(self):
        reports = [
            RoundReport(0, np.array([0.5]), np.array([0.3]), 1.0, 0.0, False),
            RoundReport(1, np.array([0.6]), np.array([0.5]), 1.0, 0.0, False),
            RoundReport(2, np.array([0.7]), np.array([0.4]), 1.0, 0.0, True),
        ]
        s = summarize(reports)
        assert s.maua == pytest.approx(0.7)
        assert s.best_global_acc == pytest.approx(0.5)
        assert s.final_global_acc == pytest.approx(0.4)
