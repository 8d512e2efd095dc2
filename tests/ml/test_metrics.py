"""Unit tests for the evaluation metrics."""

import numpy as np
import pytest

from repro.ml.metrics import (
    ErrorSummary,
    accuracy_score,
    confusion_matrix,
    mean_absolute_error,
    mean_relative_absolute_error,
    normalized_confusion_matrix,
    summarize_errors,
)


class TestRegressionMetrics:
    def test_mae_simple(self):
        assert mean_absolute_error([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(1.0)

    def test_mae_zero_for_perfect_prediction(self):
        values = np.linspace(0, 10, 20)
        assert mean_absolute_error(values, values) == 0.0

    def test_mrae_relative_to_ground_truth(self):
        assert mean_relative_absolute_error([100.0, 200.0], [110.0, 180.0]) == pytest.approx(0.1)

    def test_mrae_guards_zero_ground_truth(self):
        value = mean_relative_absolute_error([0.0], [1.0])
        assert np.isfinite(value)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mean_absolute_error([1.0, 2.0], [1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_absolute_error([], [])


class TestClassificationMetrics:
    def test_accuracy(self):
        assert accuracy_score(["a", "b", "a"], ["a", "b", "b"]) == pytest.approx(2.0 / 3.0)

    def test_confusion_matrix_counts(self):
        matrix, labels = confusion_matrix(["a", "a", "b"], ["a", "b", "b"])
        assert list(labels) == ["a", "b"]
        assert matrix[0, 0] == 1  # a predicted a
        assert matrix[0, 1] == 1  # a predicted b
        assert matrix[1, 1] == 1  # b predicted b
        assert matrix.sum() == 3

    def test_confusion_matrix_with_explicit_labels(self):
        matrix, labels = confusion_matrix(["a"], ["a"], labels=["a", "b", "c"])
        assert matrix.shape == (3, 3)
        assert matrix[0, 0] == 1

    def test_normalized_rows_sum_to_one(self):
        matrix, _ = normalized_confusion_matrix(["a", "a", "b", "b", "b"], ["a", "b", "b", "b", "a"])
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_normalized_handles_missing_actual_class(self):
        matrix, labels = normalized_confusion_matrix(["a", "a"], ["a", "b"], labels=["a", "b"])
        # Row for "b" has no actual samples -> all zeros, no NaN.
        assert np.all(np.isfinite(matrix))
        assert matrix[1].sum() == 0.0


class TestErrorSummary:
    def test_summary_fields_consistent(self):
        y_true = np.zeros(100)
        y_pred = np.linspace(-1.0, 1.0, 100)
        summary = summarize_errors(y_true, y_pred)
        assert isinstance(summary, ErrorSummary)
        assert summary.n == 100
        assert summary.p10 <= summary.p25 <= summary.median <= summary.p75 <= summary.p90
        assert summary.mae == pytest.approx(np.mean(np.abs(y_pred)))

    def test_relative_summary_divides_by_truth(self):
        y_true = np.array([100.0, 100.0])
        y_pred = np.array([150.0, 50.0])
        summary = summarize_errors(y_true, y_pred, relative=True)
        assert summary.median == pytest.approx(0.0)
        assert summary.p90 <= 0.5 + 1e-9

    def test_as_dict_round_trip(self):
        summary = summarize_errors([1.0, 2.0], [1.5, 2.5])
        data = summary.as_dict()
        assert data["n"] == 2
        assert data["mae"] == pytest.approx(0.5)


class TestRegressionMetricValues:
    @pytest.mark.parametrize(
        "y_true, y_pred, expected",
        [([0.0], [2.0], 2.0), ([1.0, 1.0], [0.0, 3.0], 1.5), ([-1.0, 4.0, 2.0], [1.0, 1.0, 2.0], 5.0 / 3.0)],
    )
    def test_mae_known_values(self, y_true, y_pred, expected):
        assert mean_absolute_error(y_true, y_pred) == pytest.approx(expected)

    def test_mae_is_symmetric(self):
        a = np.array([1.0, 5.0, -2.0])
        b = np.array([0.5, 7.0, -1.0])
        assert mean_absolute_error(a, b) == mean_absolute_error(b, a)

    def test_mrae_divides_by_absolute_ground_truth(self):
        assert mean_relative_absolute_error([-100.0], [-90.0]) == pytest.approx(0.1)

    def test_mrae_is_scale_invariant(self):
        y_true = np.array([120.0, 300.0, 45.0])
        y_pred = np.array([100.0, 330.0, 50.0])
        assert mean_relative_absolute_error(y_true * 1000, y_pred * 1000) == pytest.approx(
            mean_relative_absolute_error(y_true, y_pred)
        )

    def test_mrae_zero_truth_and_zero_prediction_is_zero(self):
        assert mean_relative_absolute_error([0.0, 10.0], [0.0, 10.0]) == 0.0

    def test_mrae_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mean_relative_absolute_error([1.0, 2.0], [1.0, 2.0, 3.0])


class TestClassificationMetricValues:
    def test_accuracy_of_identical_labels_is_one(self):
        assert accuracy_score([360, 720, 1080], [360, 720, 1080]) == 1.0

    def test_accuracy_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy_score(["a", "b"], ["a"])

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy_score([], [])

    def test_confusion_matrix_trace_matches_accuracy(self):
        y_true = ["low", "medium", "high", "medium", "low", "high", "high"]
        y_pred = ["low", "high", "high", "medium", "medium", "high", "low"]
        matrix, _ = confusion_matrix(y_true, y_pred)
        assert np.trace(matrix) / matrix.sum() == pytest.approx(accuracy_score(y_true, y_pred))

    def test_confusion_matrix_follows_explicit_label_order(self):
        matrix, labels = confusion_matrix(["a", "b", "b"], ["a", "a", "b"], labels=["b", "a"])
        assert list(labels) == ["b", "a"]
        assert matrix.tolist() == [[1, 1], [0, 1]]

    def test_confusion_matrix_integer_labels_sorted(self):
        matrix, labels = confusion_matrix([720, 360, 360], [360, 360, 720])
        assert labels.tolist() == [360, 720]
        assert matrix.tolist() == [[1, 1], [1, 0]]

    def test_confusion_matrix_counts_predicted_only_labels(self):
        _, labels = confusion_matrix(["a", "a"], ["a", "z"])
        assert list(labels) == ["a", "z"]

    def test_normalized_diagonal_is_per_class_recall(self):
        y_true = ["a", "a", "a", "a", "b", "b"]
        y_pred = ["a", "a", "a", "b", "b", "a"]
        matrix, labels = normalized_confusion_matrix(y_true, y_pred)
        assert list(labels) == ["a", "b"]
        assert np.diag(matrix) == pytest.approx([0.75, 0.5])
        assert np.all((matrix >= 0.0) & (matrix <= 1.0))


class TestErrorSummaryValues:
    def test_mean_is_signed(self):
        summary = summarize_errors([10.0, 10.0, 10.0], [12.0, 13.0, 11.0])
        assert summary.mean == pytest.approx(2.0)
        assert summarize_errors([10.0, 10.0], [8.0, 9.0]).mean == pytest.approx(-1.5)

    def test_mrae_matches_the_metric(self):
        y_true = np.array([100.0, 250.0, 80.0, 40.0])
        y_pred = np.array([90.0, 300.0, 80.0, 50.0])
        summary = summarize_errors(y_true, y_pred)
        assert summary.mrae == pytest.approx(mean_relative_absolute_error(y_true, y_pred))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            summarize_errors([1.0, 2.0], [1.0])

    def test_summary_is_frozen(self):
        summary = summarize_errors([1.0], [2.0])
        with pytest.raises(AttributeError):
            summary.mae = 0.0

    def test_as_dict_has_every_field(self):
        data = summarize_errors([1.0, 2.0, 3.0], [1.0, 2.5, 2.0]).as_dict()
        assert set(data) == {"mae", "mrae", "median", "p10", "p25", "p75", "p90", "mean", "n"}
