"""ML-based QoE estimators (Section 3.2.2 and 3.3).

:class:`IPUDPMLEstimator` trains one random forest per QoE metric on the 14
IP/UDP features; :class:`RTPMLEstimator` does the same on the RTP feature
set.  Frame rate, bitrate and frame jitter are regression targets; resolution
is a classification target over heights (or the Teams low/medium/high bins).

Both estimators share the same interface so the evaluation and benchmark code
can treat all four methods (two heuristics, two ML models) uniformly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.features import (
    IPUDP_FEATURE_NAMES,
    RTP_FEATURE_NAMES,
    extract_ipudp_features,
    extract_rtp_features,
)
from repro.core.media import MediaClassifier
from repro.core.resolution import ResolutionBin, ResolutionBinner
from repro.core.windows import WindowedTrace
from repro.ml.forest import ForestStack, RandomForestClassifier, RandomForestRegressor
from repro.net.media import MediaType
from repro.rtp.payload_types import PayloadTypeMap
from repro.webrtc.profiles import VCAProfile

__all__ = [
    "REGRESSION_METRICS",
    "ALL_METRICS",
    "MLEstimateRow",
    "BaseMLEstimator",
    "IPUDPMLEstimator",
    "RTPMLEstimator",
    "ESTIMATOR_FORMAT",
    "ESTIMATOR_FORMAT_VERSION",
]

#: Identifier and schema version of the on-disk estimator format.
ESTIMATOR_FORMAT = "repro-qoe-estimator"
ESTIMATOR_FORMAT_VERSION = 1

#: The three regression targets.
REGRESSION_METRICS: tuple[str, ...] = ("frame_rate", "bitrate", "frame_jitter")
#: All four QoE metrics (resolution is a classification target).
ALL_METRICS: tuple[str, ...] = REGRESSION_METRICS + ("resolution",)


@dataclass(frozen=True)
class MLEstimateRow:
    """Per-window predictions from an ML estimator."""

    window_start: float
    frame_rate: float
    bitrate_kbps: float
    frame_jitter_ms: float
    resolution: str | None

    def metric(self, name: str):
        if name == "frame_rate":
            return self.frame_rate
        if name == "bitrate":
            return self.bitrate_kbps
        if name == "frame_jitter":
            return self.frame_jitter_ms
        if name == "resolution":
            return self.resolution
        raise ValueError(f"unknown metric: {name!r}")


@dataclass
class _ForestParams:
    """Hyper-parameters shared by all per-metric forests."""

    n_estimators: int = 30
    max_depth: int | None = 12
    min_samples_leaf: int = 2
    random_state: int = 0


class BaseMLEstimator:
    """Shared fit/predict machinery for the two ML estimators."""

    #: Human-readable feature names, set by subclasses.
    feature_names: tuple[str, ...] = ()

    def __init__(
        self,
        resolution_binner: ResolutionBinner | None = None,
        n_estimators: int = 30,
        max_depth: int | None = 12,
        min_samples_leaf: int = 2,
        random_state: int = 0,
    ) -> None:
        self.resolution_binner = resolution_binner if resolution_binner is not None else ResolutionBinner(None)
        self.params = _ForestParams(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            random_state=random_state,
        )
        self.regressors_: dict[str, RandomForestRegressor] = {}
        self.classifier_: RandomForestClassifier | None = None
        self._stack: ForestStack | None = None

    # -- feature extraction (subclass hook) ------------------------------------

    def features_for_window(self, window: WindowedTrace) -> np.ndarray:
        raise NotImplementedError

    def feature_matrix(self, windows: list[WindowedTrace]) -> np.ndarray:
        """Stack per-window feature vectors into a design matrix."""
        if not windows:
            raise ValueError("need at least one window")
        return np.vstack([self.features_for_window(w) for w in windows])

    # -- training ---------------------------------------------------------------

    def _make_regressor(self) -> RandomForestRegressor:
        return RandomForestRegressor(
            n_estimators=self.params.n_estimators,
            max_depth=self.params.max_depth,
            min_samples_leaf=self.params.min_samples_leaf,
            max_features="sqrt",
            random_state=self.params.random_state,
        )

    def _make_classifier(self) -> RandomForestClassifier:
        return RandomForestClassifier(
            n_estimators=self.params.n_estimators,
            max_depth=self.params.max_depth,
            min_samples_leaf=self.params.min_samples_leaf,
            max_features="sqrt",
            random_state=self.params.random_state,
        )

    def fit(self, X: np.ndarray, targets: dict[str, np.ndarray]) -> "BaseMLEstimator":
        """Train one model per metric present in ``targets``.

        ``targets`` maps metric names ("frame_rate", "bitrate", "frame_jitter",
        "resolution") to per-window target arrays aligned with the rows of
        ``X``.  Resolution targets are class labels (already binned).
        """
        X = np.asarray(X, dtype=float)
        for metric, y in targets.items():
            if metric == "resolution":
                classifier = self._make_classifier()
                classifier.fit(X, np.asarray(y))
                self.classifier_ = classifier
            elif metric in REGRESSION_METRICS:
                regressor = self._make_regressor()
                regressor.fit(X, np.asarray(y, dtype=float))
                self.regressors_[metric] = regressor
            else:
                raise ValueError(f"unknown metric: {metric!r}")
        return self

    def fit_windows(self, windows: list[WindowedTrace], targets: dict[str, np.ndarray]) -> "BaseMLEstimator":
        return self.fit(self.feature_matrix(windows), targets)

    # -- prediction --------------------------------------------------------------

    def _check_fitted(self, metric: str) -> None:
        if metric == "resolution":
            if self.classifier_ is None:
                raise RuntimeError("resolution model is not fitted")
        elif metric not in self.regressors_:
            raise RuntimeError(f"model for metric {metric!r} is not fitted")

    def predict_metric(self, X: np.ndarray, metric: str) -> np.ndarray:
        """Predict one metric for a design matrix."""
        self._check_fitted(metric)
        X = np.asarray(X, dtype=float)
        if metric == "resolution":
            assert self.classifier_ is not None
            return self.classifier_.predict(X)
        predictions = self.regressors_[metric].predict(X)
        # QoE metrics are non-negative by definition.
        return np.maximum(predictions, 0.0)

    def predict_rows(self, X: np.ndarray, window_starts) -> list[MLEstimateRow]:
        """Per-window estimate rows for a design matrix.

        The single metric-to-field mapping shared by the batch
        (:meth:`predict_windows`) and streaming
        (:meth:`~repro.core.streaming.StreamingQoEPipeline`) paths: unfitted
        regression metrics become NaN, resolution ``None`` without a
        classifier.
        """
        X = np.asarray(X, dtype=float)
        columns = self._predict_columns(X)
        missing = [float("nan")] * len(X)

        def values(metric: str) -> list:
            return columns[metric].tolist() if metric in columns else missing

        resolution = (
            [str(label) for label in columns["resolution"].tolist()]
            if "resolution" in columns
            else [None] * len(X)
        )
        return [
            MLEstimateRow(window_start, frame_rate, bitrate, jitter, label)
            for window_start, frame_rate, bitrate, jitter, label in zip(
                window_starts, values("frame_rate"), values("bitrate"), values("frame_jitter"), resolution
            )
        ]

    def _predict_columns(self, X: np.ndarray) -> dict[str, np.ndarray]:
        """:meth:`predict_metric` for every fitted metric, from one walk of
        all the forests' trees stacked together (a :class:`ForestStack`,
        rebuilt whenever a forest is refitted or replaced)."""
        forests = list(self.regressors_.values())
        if self.classifier_ is not None:
            forests.append(self.classifier_)
        if not forests:
            return {}
        if self._stack is None or not self._stack.matches(forests):
            self._stack = ForestStack(forests)
        outputs = self._stack.predict(X)
        # QoE metrics are non-negative by definition.
        columns = {metric: np.maximum(out, 0.0) for metric, out in zip(self.regressors_, outputs)}
        if self.classifier_ is not None:
            assert self.classifier_.classes_ is not None
            columns["resolution"] = self.classifier_.classes_[np.argmax(outputs[-1], axis=1)]
        return columns

    def predict_windows(self, windows: list[WindowedTrace]) -> list[MLEstimateRow]:
        """Full per-window estimates for every fitted metric."""
        X = self.feature_matrix(windows)
        return self.predict_rows(X, [window.start for window in windows])

    def predict_many(self, feature_rows, window_starts) -> list[MLEstimateRow]:
        """Batched inference over per-window feature vectors.

        ``feature_rows`` is a sequence of 1-D feature vectors (one per
        window, not necessarily from the same flow); each per-metric forest
        runs once over the stacked matrix instead of once per window.  Row
        independence in the trees makes the result bit-identical to calling
        :meth:`predict_rows` per row -- pinned by the cluster tests -- so
        callers may batch freely for throughput without changing estimates.
        A 2-D array is taken as the stacked matrix itself.
        """
        if len(feature_rows) == 0:
            return []
        stacked = isinstance(feature_rows, np.ndarray) and feature_rows.ndim == 2
        X = feature_rows if stacked else np.vstack(feature_rows)
        return self.predict_rows(X, list(window_starts))

    # -- persistence --------------------------------------------------------------

    def to_dict(self) -> dict:
        """Versioned, JSON-serializable snapshot of the trained estimator.

        Includes every per-metric forest, the feature schema (ordered feature
        names), forest hyper-parameters, the resolution binner, and
        subclass-specific configuration (:meth:`_extra_state`).  Floats
        round-trip bit-identically through JSON, so
        ``from_dict(to_dict())`` predicts exactly what the original does.
        """
        bins = self.resolution_binner.bins
        return {
            "format": ESTIMATOR_FORMAT,
            "version": ESTIMATOR_FORMAT_VERSION,
            "estimator": type(self).__name__,
            "feature_names": list(self.feature_names),
            "params": asdict(self.params),
            "resolution_bins": (
                None if bins is None else [[b.label, b.lower, b.upper] for b in bins]
            ),
            "regressors": {metric: forest.to_dict() for metric, forest in self.regressors_.items()},
            "classifier": self.classifier_.to_dict() if self.classifier_ is not None else None,
            "extra": self._extra_state(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BaseMLEstimator":
        """Inverse of :meth:`to_dict`.

        Call on :class:`BaseMLEstimator` to dispatch on the serialized
        estimator name, or on a concrete subclass to additionally enforce the
        type.
        """
        if data.get("format") != ESTIMATOR_FORMAT:
            raise ValueError(f"not a serialized QoE estimator (format {data.get('format')!r})")
        if data.get("version") != ESTIMATOR_FORMAT_VERSION:
            raise ValueError(
                f"unsupported estimator format version {data.get('version')!r} "
                f"(this build reads version {ESTIMATOR_FORMAT_VERSION})"
            )
        name = data.get("estimator")
        target = cls._resolve_estimator_class(name)
        if cls is not BaseMLEstimator and target is not cls:
            raise ValueError(f"serialized estimator is a {name}, expected {cls.__name__}")
        if list(data["feature_names"]) != list(target.feature_names):
            raise ValueError(
                f"feature schema mismatch: model was trained on {data['feature_names']}, "
                f"this build extracts {list(target.feature_names)}"
            )
        bins = data["resolution_bins"]
        binner = ResolutionBinner(
            None if bins is None else tuple(ResolutionBin(label, lower, upper) for label, lower, upper in bins)
        )
        estimator = target._construct(data["extra"], resolution_binner=binner, **data["params"])
        estimator.regressors_ = {
            metric: RandomForestRegressor.from_dict(forest)
            for metric, forest in data["regressors"].items()
        }
        if data["classifier"] is not None:
            estimator.classifier_ = RandomForestClassifier.from_dict(data["classifier"])
        return estimator

    def save(self, path: str | Path) -> Path:
        """Persist the trained estimator to ``path`` as versioned JSON."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict()))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "BaseMLEstimator":
        """Reconstruct an estimator saved with :meth:`save` (bit-identical predictions)."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    @staticmethod
    def _resolve_estimator_class(name: str) -> "type[BaseMLEstimator]":
        known = {sub.__name__: sub for sub in BaseMLEstimator.__subclasses__()}
        if name not in known:
            raise ValueError(f"unknown serialized estimator type {name!r} (known: {sorted(known)})")
        return known[name]

    def _extra_state(self) -> dict:
        """Subclass-specific serialized configuration (hook)."""
        return {}

    @classmethod
    def _construct(cls, extra: dict, **kwargs) -> "BaseMLEstimator":
        """Build an unfitted instance from :meth:`_extra_state` output (hook)."""
        return cls(**kwargs)

    # -- interpretation -----------------------------------------------------------

    def feature_importances(self, metric: str) -> dict[str, float]:
        """Impurity-based feature importances for one metric's model."""
        self._check_fitted(metric)
        if metric == "resolution":
            assert self.classifier_ is not None
            importances = self.classifier_.feature_importances_
        else:
            importances = self.regressors_[metric].feature_importances_
        assert importances is not None
        return dict(zip(self.feature_names, importances.tolist()))

    def top_features(self, metric: str, k: int = 5) -> list[tuple[str, float]]:
        """The ``k`` most important features for ``metric`` (Figures 5, 7, 9)."""
        importances = self.feature_importances(metric)
        ranked = sorted(importances.items(), key=lambda item: item[1], reverse=True)
        return ranked[:k]


class IPUDPMLEstimator(BaseMLEstimator):
    """Random forests over the 14 IP/UDP features (the paper's IP/UDP ML)."""

    feature_names = IPUDP_FEATURE_NAMES

    def __init__(self, classifier: MediaClassifier | None = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.media_classifier = classifier if classifier is not None else MediaClassifier()

    @classmethod
    def for_profile(cls, profile: VCAProfile, **kwargs) -> "IPUDPMLEstimator":
        from repro.core.resolution import binner_for_vca

        return cls(
            classifier=MediaClassifier(video_size_threshold=profile.video_size_threshold),
            resolution_binner=binner_for_vca(profile.name),
            **kwargs,
        )

    def features_for_window(self, window: WindowedTrace) -> np.ndarray:
        return extract_ipudp_features(window, classifier=self.media_classifier)

    def _extra_state(self) -> dict:
        return {
            "media_classifier": {
                "video_size_threshold": self.media_classifier.video_size_threshold,
                "keepalive_size": self.media_classifier.keepalive_size,
            }
        }

    @classmethod
    def _construct(cls, extra: dict, **kwargs) -> "IPUDPMLEstimator":
        return cls(classifier=MediaClassifier(**extra["media_classifier"]), **kwargs)


class RTPMLEstimator(BaseMLEstimator):
    """Random forests over RTP-header features plus flow statistics."""

    feature_names = RTP_FEATURE_NAMES

    def __init__(self, payload_types: PayloadTypeMap, **kwargs) -> None:
        super().__init__(**kwargs)
        self.payload_types = payload_types

    @classmethod
    def for_profile(cls, profile: VCAProfile, environment: str = "lab", **kwargs) -> "RTPMLEstimator":
        from repro.core.resolution import binner_for_vca

        return cls(
            payload_types=profile.payload_types_for(environment),
            resolution_binner=binner_for_vca(profile.name),
            **kwargs,
        )

    def features_for_window(self, window: WindowedTrace) -> np.ndarray:
        return extract_rtp_features(window, self.payload_types)

    def _extra_state(self) -> dict:
        pt = self.payload_types
        return {
            "payload_types": {
                "audio": pt.audio,
                "video": pt.video,
                "video_rtx": pt.video_rtx,
                "extra": {str(number): media.name for number, media in pt.extra.items()},
            }
        }

    @classmethod
    def _construct(cls, extra: dict, **kwargs) -> "RTPMLEstimator":
        spec = extra["payload_types"]
        payload_types = PayloadTypeMap(
            audio=spec["audio"],
            video=spec["video"],
            video_rtx=spec["video_rtx"],
            extra={int(number): MediaType[name] for number, name in spec["extra"].items()},
        )
        return cls(payload_types=payload_types, **kwargs)
