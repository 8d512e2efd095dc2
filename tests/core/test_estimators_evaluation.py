"""Unit tests for the ML estimators, evaluation protocol and error taxonomy."""

import numpy as np
import pytest

from repro.core.errors import analyze_heuristic_errors
from repro.core.estimators import IPUDPMLEstimator, RTPMLEstimator
from repro.core.evaluation import (
    EvaluationDataset,
    compare_methods,
    cross_validated_predictions,
    feature_importance_report,
    heuristic_predictions,
    resolution_report,
    transfer_mae,
)
from repro.core.heuristic import IPUDPHeuristic
from repro.core.windows import match_windows_to_ground_truth
from repro.webrtc.profiles import get_profile


@pytest.fixture(scope="module")
def teams_dataset(teams_calls_small):
    return EvaluationDataset.from_calls(teams_calls_small)


class TestMLEstimators:
    def test_fit_and_predict_all_metrics(self, teams_calls_small):
        call = teams_calls_small[0]
        matched = match_windows_to_ground_truth(call.trace, call.ground_truth)
        windows = [m.window for m in matched]
        estimator = IPUDPMLEstimator.for_profile(get_profile("teams"), n_estimators=5)
        targets = {
            "frame_rate": np.array([m.ground_truth.frames_received for m in matched]),
            "bitrate": np.array([m.ground_truth.bitrate_kbps for m in matched]),
            "frame_jitter": np.array([m.ground_truth.frame_jitter_ms for m in matched]),
            "resolution": np.array(["low"] * len(matched)),
        }
        X = estimator.feature_matrix(windows)
        estimator.fit(X, targets)
        rows = estimator.predict_rows(X, [window.start for window in windows])
        assert len(rows) == len(windows)
        assert all(row.frame_rate >= 0 for row in rows)
        assert all(row.resolution == "low" for row in rows)

    def test_unfitted_metric_raises(self, teams_calls_small):
        estimator = IPUDPMLEstimator.for_profile(get_profile("teams"))
        with pytest.raises(RuntimeError):
            estimator.predict_metric(np.zeros((1, 14)), "frame_rate")

    def test_unknown_metric_rejected(self):
        estimator = IPUDPMLEstimator.for_profile(get_profile("teams"))
        with pytest.raises(ValueError):
            estimator.fit(np.zeros((10, 14)), {"mos": np.zeros(10)})

    def test_feature_importances_named_and_normalised(self, teams_dataset):
        estimator = teams_dataset.make_estimator("ipudp_ml", n_estimators=8)
        estimator.fit(teams_dataset.X_ipudp, {"frame_rate": teams_dataset.ground_truth["frame_rate"]})
        importances = estimator.feature_importances("frame_rate")
        assert set(importances) == set(estimator.feature_names)
        assert np.isclose(sum(importances.values()), 1.0)
        top = estimator.top_features("frame_rate", k=5)
        assert len(top) == 5
        assert top[0][1] >= top[-1][1]

    def test_rtp_estimator_uses_rtp_features(self, teams_dataset):
        estimator = teams_dataset.make_estimator("rtp_ml")
        assert isinstance(estimator, RTPMLEstimator)
        assert "# unique RTPvid TS" in estimator.feature_names


class TestEvaluationDataset:
    def test_shapes_consistent(self, teams_dataset):
        n = teams_dataset.n_windows
        assert teams_dataset.X_ipudp.shape == (n, 14)
        assert teams_dataset.X_rtp.shape[0] == n
        assert len(teams_dataset.resolution_labels) == n
        for metric in ("frame_rate", "bitrate", "frame_jitter"):
            assert len(teams_dataset.ground_truth[metric]) == n
            assert len(teams_dataset.heuristic_estimates["ipudp_heuristic"][metric]) == n

    def test_groups_are_call_ids(self, teams_dataset, teams_calls_small):
        assert set(teams_dataset.groups) == {c.config.call_id for c in teams_calls_small}

    def test_mixed_vcas_rejected(self, teams_calls_small, webex_call):
        with pytest.raises(ValueError):
            EvaluationDataset.from_calls(teams_calls_small + [webex_call])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EvaluationDataset.from_calls([])

    def test_features_for_unknown_method(self, teams_dataset):
        with pytest.raises(ValueError):
            teams_dataset.features_for("ipudp_heuristic")


class TestEvaluationProtocol:
    def test_cross_validated_predictions_cover_all_windows(self, teams_dataset):
        predictions = cross_validated_predictions(teams_dataset, "ipudp_ml", "frame_rate", n_estimators=8)
        assert predictions.shape == (teams_dataset.n_windows,)
        assert np.all(predictions >= 0)

    def test_resolution_cross_validation_returns_labels(self, teams_dataset):
        predictions = cross_validated_predictions(teams_dataset, "ipudp_ml", "resolution", n_estimators=8)
        assert set(predictions) <= set(teams_dataset.resolution_labels) | {"low", "medium", "high"}

    def test_heuristic_predictions_lookup(self, teams_dataset):
        values = heuristic_predictions(teams_dataset, "ipudp_heuristic", "frame_rate")
        assert len(values) == teams_dataset.n_windows
        with pytest.raises(ValueError):
            heuristic_predictions(teams_dataset, "ipudp_ml", "frame_rate")
        with pytest.raises(ValueError):
            heuristic_predictions(teams_dataset, "ipudp_heuristic", "resolution")

    def test_compare_methods_returns_all_four(self, teams_dataset):
        results = compare_methods(teams_dataset, "frame_rate", n_estimators=8)
        assert set(results) == {"rtp_ml", "ipudp_ml", "rtp_heuristic", "ipudp_heuristic"}
        for errors in results.values():
            assert errors.summary.n == teams_dataset.n_windows
            assert errors.summary.mae >= 0.0

    def test_compare_methods_rejects_resolution(self, teams_dataset):
        with pytest.raises(ValueError):
            compare_methods(teams_dataset, "resolution")

    def test_ml_beats_or_matches_ipudp_heuristic(self, teams_dataset):
        """The paper's core finding: ML methods are at least as accurate as the
        IP/UDP heuristic for frame rate."""
        results = compare_methods(teams_dataset, "frame_rate", n_estimators=12)
        assert results["ipudp_ml"].summary.mae <= results["ipudp_heuristic"].summary.mae

    def test_resolution_report(self, teams_dataset):
        report = resolution_report(teams_dataset, "ipudp_ml", n_estimators=8)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.confusion.shape == (len(report.labels), len(report.labels))
        assert report.counts.sum() == teams_dataset.n_windows
        with pytest.raises(ValueError):
            resolution_report(teams_dataset, "ipudp_heuristic")

    def test_transfer_mae(self, teams_dataset):
        mae = transfer_mae(teams_dataset, teams_dataset, "ipudp_ml", "frame_rate", n_estimators=8)
        assert mae >= 0.0
        error_rate = transfer_mae(teams_dataset, teams_dataset, "ipudp_ml", "resolution", n_estimators=8)
        assert 0.0 <= error_rate <= 1.0
        with pytest.raises(ValueError):
            transfer_mae(teams_dataset, teams_dataset, "ipudp_heuristic", "frame_rate")

    def test_feature_importance_report(self, teams_dataset):
        top = feature_importance_report(teams_dataset, "ipudp_ml", "bitrate", k=5, n_estimators=8)
        assert len(top) == 5
        names = [name for name, _ in top]
        # Bitrate should be dominated by volume features (# bytes / sizes / packets).
        assert any(name in ("# bytes", "# packets", "Size [mean]", "Size [median]", "Size [max]") for name in names[:3])


class TestErrorTaxonomy:
    def test_error_breakdown_fields(self, lossy_teams_call):
        heuristic = IPUDPHeuristic.for_profile(get_profile("teams"))
        breakdown = analyze_heuristic_errors(
            lossy_teams_call.trace, heuristic, duration_s=lossy_teams_call.duration_s
        )
        assert breakdown.n_windows > 0
        assert breakdown.avg_splits >= 0.0
        assert breakdown.avg_coalesces >= 0.0
        assert breakdown.avg_interleaves >= 0.0
        assert set(breakdown.as_dict()) == {"splits", "interleaves", "coalesces"}

    def test_meet_shows_more_splits_than_webex(self, meet_call, webex_call):
        """Meet's unequal fragmentation should produce more splits per window
        than Webex (Figure 4)."""
        meet_breakdown = analyze_heuristic_errors(
            meet_call.trace, IPUDPHeuristic.for_profile(get_profile("meet")), duration_s=meet_call.duration_s
        )
        webex_breakdown = analyze_heuristic_errors(
            webex_call.trace, IPUDPHeuristic.for_profile(get_profile("webex")), duration_s=webex_call.duration_s
        )
        assert meet_breakdown.avg_splits > webex_breakdown.avg_splits
