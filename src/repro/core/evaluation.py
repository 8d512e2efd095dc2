"""Evaluation protocol: dataset assembly, cross validation, method comparison.

This module turns a list of simulated calls into the per-window samples the
paper evaluates on, and implements its protocol:

* ML methods are scored with 5-fold cross validation (out-of-fold
  predictions for every window);
* heuristics are scored directly on every window;
* frame rate and frame jitter use MAE, bitrate uses MRAE, resolution uses
  accuracy and confusion matrices;
* model transferability trains on one dataset (lab) and tests on another
  (real-world).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.estimators import (
    REGRESSION_METRICS,
    BaseMLEstimator,
    IPUDPMLEstimator,
    RTPMLEstimator,
)
from repro.core.heuristic import estimates_from_frames
from repro.core.pipeline import QoEPipeline
from repro.core.resolution import binner_for_vca
from repro.core.rtp_heuristic import RTPHeuristic
from repro.core.windows import match_windows_to_ground_truth
from repro.ml.metrics import (
    ErrorSummary,
    accuracy_score,
    mean_absolute_error,
    normalized_confusion_matrix,
    summarize_errors,
)
from repro.ml.model_selection import KFold
from repro.webrtc.profiles import get_profile
from repro.webrtc.session import CallResult

__all__ = [
    "METHOD_NAMES",
    "EvaluationDataset",
    "MethodErrors",
    "compare_methods",
    "cross_validated_predictions",
    "heuristic_predictions",
    "resolution_report",
    "transfer_mae",
    "feature_importance_report",
]

#: The four estimation methods compared throughout the evaluation.
METHOD_NAMES: tuple[str, ...] = ("rtp_ml", "ipudp_ml", "rtp_heuristic", "ipudp_heuristic")
#: Methods that can estimate resolution (the heuristics cannot).
RESOLUTION_METHODS: tuple[str, ...] = ("rtp_ml", "ipudp_ml")


@dataclass
class EvaluationDataset:
    """Per-window samples for one VCA and one environment."""

    vca: str
    environment: str
    window_s: int
    X_ipudp: np.ndarray
    X_rtp: np.ndarray
    ground_truth: dict[str, np.ndarray]
    heuristic_estimates: dict[str, dict[str, np.ndarray]]
    groups: np.ndarray
    resolution_labels: np.ndarray

    def __len__(self) -> int:
        return len(self.groups)

    @property
    def n_windows(self) -> int:
        return len(self.groups)

    @classmethod
    def from_calls(
        cls, calls: list[CallResult], window_s: int = 1, environment: str | None = None
    ) -> "EvaluationDataset":
        """Build the per-window dataset from simulated calls of a single VCA.

        The ``ipudp_heuristic`` column is what the deployed engine emits:
        :meth:`QoEPipeline.estimate <repro.core.pipeline.QoEPipeline.estimate>`
        (one ``push_block`` tick) read by window start.  A window past the
        call's last packet, which the engine never emits, scores as empty.
        """
        if not calls:
            raise ValueError("need at least one call")
        vcas = {call.vca for call in calls}
        if len(vcas) != 1:
            raise ValueError(f"all calls must belong to the same VCA, got {sorted(vcas)}")
        vca = calls[0].vca
        profile = get_profile(vca)
        if environment is None:
            environment = calls[0].config.environment

        ipudp_ml = IPUDPMLEstimator.for_profile(profile)
        rtp_ml = RTPMLEstimator.for_profile(profile, environment=environment)
        ipudp_pipeline = QoEPipeline.for_vca(vca, window_s=window_s)
        rtp_heuristic = RTPHeuristic.for_profile(profile, environment=environment)
        binner = binner_for_vca(vca)

        X_ipudp_rows: list[np.ndarray] = []
        X_rtp_rows: list[np.ndarray] = []
        gt: dict[str, list[float]] = {metric: [] for metric in REGRESSION_METRICS}
        gt_heights: list[float] = []
        heuristics: dict[str, dict[str, list[float]]] = {
            "ipudp_heuristic": {metric: [] for metric in REGRESSION_METRICS},
            "rtp_heuristic": {metric: [] for metric in REGRESSION_METRICS},
        }
        groups: list[str] = []

        for call in calls:
            matched = match_windows_to_ground_truth(
                call.trace, call.ground_truth, window_s=window_s
            )
            if not matched:
                continue
            ipudp_estimates = {e.window_start: e for e in ipudp_pipeline.estimate(call.trace)}
            rtp_frames = rtp_heuristic.assemble(call.trace)
            for sample in matched:
                window = sample.window
                X_ipudp_rows.append(ipudp_ml.features_for_window(window))
                X_rtp_rows.append(rtp_ml.features_for_window(window))
                gt["frame_rate"].append(sample.ground_truth.frames_received)
                gt["bitrate"].append(sample.ground_truth.bitrate_kbps)
                gt["frame_jitter"].append(sample.ground_truth.frame_jitter_ms)
                gt_heights.append(float(sample.ground_truth.frame_height))

                ip_est = ipudp_estimates.get(window.start)
                if ip_est is None:
                    ip_est = estimates_from_frames([], window.start, window.duration)
                rtp_est = estimates_from_frames(rtp_frames, window.start, window.duration)
                ip_row = {
                    "frame_rate": ip_est.frame_rate,
                    "bitrate": ip_est.bitrate_kbps,
                    "frame_jitter": ip_est.frame_jitter_ms,
                }
                for metric in REGRESSION_METRICS:
                    heuristics["ipudp_heuristic"][metric].append(ip_row[metric])
                    heuristics["rtp_heuristic"][metric].append(rtp_est.metric(metric))
                groups.append(call.config.call_id)

        if not groups:
            raise ValueError("no usable windows were produced from the provided calls")

        return cls(
            vca=vca,
            environment=environment,
            window_s=window_s,
            X_ipudp=np.vstack(X_ipudp_rows),
            X_rtp=np.vstack(X_rtp_rows),
            ground_truth={metric: np.array(values) for metric, values in gt.items()},
            heuristic_estimates={
                method: {metric: np.array(values) for metric, values in metrics.items()}
                for method, metrics in heuristics.items()
            },
            groups=np.array(groups),
            resolution_labels=binner.labels(gt_heights),
        )

    def features_for(self, method: str) -> np.ndarray:
        if method == "ipudp_ml":
            return self.X_ipudp
        if method == "rtp_ml":
            return self.X_rtp
        raise ValueError(f"{method!r} is not an ML method")

    def make_estimator(self, method: str, **kwargs) -> BaseMLEstimator:
        """A fresh, unfitted estimator of the requested ML method."""
        profile = get_profile(self.vca)
        if method == "ipudp_ml":
            return IPUDPMLEstimator.for_profile(profile, **kwargs)
        if method == "rtp_ml":
            return RTPMLEstimator.for_profile(profile, environment=self.environment, **kwargs)
        raise ValueError(f"{method!r} is not an ML method")


@dataclass(frozen=True)
class MethodErrors:
    """Error summary for one (method, metric) pair."""

    method: str
    metric: str
    summary: ErrorSummary
    predictions: np.ndarray = field(repr=False, default=None)
    ground_truth: np.ndarray = field(repr=False, default=None)


def cross_validated_predictions(
    dataset: EvaluationDataset,
    method: str,
    metric: str,
    n_splits: int = 5,
    random_state: int = 0,
    n_estimators: int = 30,
) -> np.ndarray:
    """Out-of-fold predictions for an ML method on one metric (5-fold CV)."""
    X = dataset.features_for(method)
    if metric == "resolution":
        y = dataset.resolution_labels
    else:
        y = dataset.ground_truth[metric]
    cv = KFold(n_splits=n_splits, shuffle=True, random_state=random_state)
    predictions = np.empty(len(y), dtype=object)
    for train_idx, test_idx in cv.split(X, y):
        estimator = dataset.make_estimator(method, n_estimators=n_estimators)
        estimator.fit(X[train_idx], {metric: y[train_idx]})
        fold_predictions = estimator.predict_metric(X[test_idx], metric)
        for i, value in zip(test_idx, fold_predictions):
            predictions[i] = value
    if metric == "resolution":
        return np.array([str(p) for p in predictions])
    return np.array([float(p) for p in predictions])


def heuristic_predictions(dataset: EvaluationDataset, method: str, metric: str) -> np.ndarray:
    """Per-window heuristic estimates (no training involved)."""
    if method not in dataset.heuristic_estimates:
        raise ValueError(f"{method!r} is not a heuristic method")
    if metric not in REGRESSION_METRICS:
        raise ValueError(f"heuristics do not estimate {metric!r}")
    return dataset.heuristic_estimates[method][metric]


def method_predictions(
    dataset: EvaluationDataset, method: str, metric: str, n_estimators: int = 30
) -> np.ndarray:
    """Predictions for any of the four methods on one metric."""
    if method in ("ipudp_ml", "rtp_ml"):
        return cross_validated_predictions(dataset, method, metric, n_estimators=n_estimators)
    return heuristic_predictions(dataset, method, metric)


def compare_methods(
    dataset: EvaluationDataset,
    metric: str,
    methods: tuple[str, ...] = METHOD_NAMES,
    n_estimators: int = 30,
) -> dict[str, MethodErrors]:
    """Error summaries for every method on one regression metric.

    This is the computation behind Figures 3, 6a, 6b and 10: signed error
    distributions (box plots) annotated with MAE (frame rate, frame jitter)
    or MRAE (bitrate).
    """
    if metric not in REGRESSION_METRICS:
        raise ValueError(f"compare_methods only handles regression metrics, got {metric!r}")
    y_true = dataset.ground_truth[metric]
    results: dict[str, MethodErrors] = {}
    for method in methods:
        if method in ("rtp_heuristic", "ipudp_heuristic"):
            y_pred = heuristic_predictions(dataset, method, metric)
        else:
            y_pred = cross_validated_predictions(dataset, method, metric, n_estimators=n_estimators)
        summary = summarize_errors(y_true, y_pred, relative=(metric == "bitrate"))
        results[method] = MethodErrors(
            method=method, metric=metric, summary=summary, predictions=y_pred, ground_truth=y_true
        )
    return results


@dataclass(frozen=True)
class ResolutionReport:
    """Accuracy and confusion matrix for resolution classification."""

    method: str
    accuracy: float
    labels: np.ndarray
    confusion: np.ndarray
    counts: np.ndarray


def resolution_report(
    dataset: EvaluationDataset, method: str = "ipudp_ml", n_estimators: int = 30
) -> ResolutionReport:
    """Resolution classification accuracy + confusion matrix (Tables 3, 4, A.3).

    Skips nothing: if the dataset only contains a single resolution class the
    accuracy is trivially 1.0, matching the paper's decision to skip accuracy
    computation for Webex real-world data.
    """
    if method not in RESOLUTION_METHODS:
        raise ValueError(f"resolution is only estimated by ML methods, got {method!r}")
    y_true = dataset.resolution_labels
    y_pred = cross_validated_predictions(dataset, method, "resolution", n_estimators=n_estimators)
    matrix, labels = normalized_confusion_matrix(y_true, y_pred)
    counts = np.array([int(np.sum(y_true == label)) for label in labels])
    return ResolutionReport(
        method=method,
        accuracy=accuracy_score(y_true, y_pred),
        labels=labels,
        confusion=matrix,
        counts=counts,
    )


def transfer_mae(
    train: EvaluationDataset,
    test: EvaluationDataset,
    method: str,
    metric: str,
    n_estimators: int = 30,
) -> float:
    """Train on one dataset, test on another (Tables 5, A.4, A.5).

    For resolution the returned value is ``1 - accuracy`` (an error rate) so
    that the "higher is worse" convention matches the MAE columns.
    """
    if method not in ("ipudp_ml", "rtp_ml"):
        raise ValueError("transferability is evaluated for ML methods only")
    X_train = train.features_for(method)
    X_test = test.features_for(method)
    if metric == "resolution":
        y_train = train.resolution_labels
        y_test = test.resolution_labels
    else:
        y_train = train.ground_truth[metric]
        y_test = test.ground_truth[metric]

    estimator = train.make_estimator(method, n_estimators=n_estimators)
    estimator.fit(X_train, {metric: y_train})
    predictions = estimator.predict_metric(X_test, metric)
    if metric == "resolution":
        # Unseen classes in the test set (e.g. Meet's 540p/720p in the wild)
        # count as errors, as they do in the paper's transfer analysis.
        return 1.0 - accuracy_score(y_test, predictions)
    return mean_absolute_error(y_test, predictions)


def feature_importance_report(
    dataset: EvaluationDataset,
    method: str,
    metric: str,
    k: int = 5,
    n_estimators: int = 30,
) -> list[tuple[str, float]]:
    """Top-k feature importances for one (method, metric) pair (Figures 5, 7, 9)."""
    estimator = dataset.make_estimator(method, n_estimators=n_estimators)
    X = dataset.features_for(method)
    if metric == "resolution":
        y = dataset.resolution_labels
    else:
        y = dataset.ground_truth[metric]
    estimator.fit(X, {metric: y})
    return estimator.top_features(metric, k=k)
