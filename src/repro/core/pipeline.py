"""End-to-end QoE estimation pipeline (the library's main public API).

A :class:`QoEPipeline` is what a network operator would deploy: point it at a
packet trace of a VCA session (pcap file or :class:`~repro.net.trace.PacketTrace`)
and get per-second QoE estimates back.  The pipeline combines the trained
IP/UDP ML models with the IP/UDP heuristic (used as a fallback when no model
has been trained) and never looks at RTP headers or ground-truth annotations.

Architecture
------------
Estimation is *streaming-first*.  The actual execution engine is
:class:`~repro.core.streaming.StreamingQoEPipeline`: a single-pass, per-flow
operator chain (media classification -> online frame assembly -> incremental
feature accumulation -> per-window inference) whose retained state is bounded
by the window size, never the trace length.  :meth:`QoEPipeline.estimate` is
a thin *batch adapter* over that engine -- it feeds the materialized trace
through the stream in single-flow mode and collects the emitted windows -- so
the batch and streaming code paths share one implementation and cannot
diverge.  Training, which inherently needs the labelled lab traces aligned
with per-second ground truth, remains a batch operation over
:func:`~repro.core.windows.match_windows_to_ground_truth`.

All behavioural knobs live in a frozen, validated
:class:`~repro.core.config.PipelineConfig`; a trained pipeline can be
persisted with :meth:`save` and reconstructed bit-identically with
:meth:`load` (train once in the lab, deploy many times -- see
:class:`~repro.monitor.QoEMonitor`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.estimators import IPUDPMLEstimator, REGRESSION_METRICS
from repro.core.heuristic import IPUDPHeuristic
from repro.core.media import MediaClassifier
from repro.core.windows import match_windows_to_ground_truth
from repro.net.trace import PacketTrace
from repro.webrtc.profiles import VCAProfile, get_profile
from repro.webrtc.session import CallResult

__all__ = ["PipelineEstimate", "QoEPipeline", "PIPELINE_FORMAT", "PIPELINE_FORMAT_VERSION"]

#: Identifier and schema version of the on-disk pipeline format.
PIPELINE_FORMAT = "repro-qoe-pipeline"
PIPELINE_FORMAT_VERSION = 1


@dataclass(frozen=True, slots=True)
class PipelineEstimate:
    """Per-window QoE estimate emitted by the pipeline.

    Slotted: every collecting sink retains one per (flow, window) and the
    sharded monitor's return wire rebuilds each one, so an instance
    ``__dict__`` would double what an estimate costs to keep.
    """

    window_start: float
    frame_rate: float
    bitrate_kbps: float
    frame_jitter_ms: float
    resolution: str | None
    source: str  # "ml" or "heuristic"

    @classmethod
    def _from_wire(
        cls,
        window_start: float,
        frame_rate: float,
        bitrate_kbps: float,
        frame_jitter_ms: float,
        resolution: str | None,
        source: str,
    ) -> "PipelineEstimate":
        """Trusted fast constructor for decoded wire rows.

        The return-path decoder materializes millions of these, so it skips
        ``__init__``'s keyword binding and fills the slots directly -- the
        same ``object.__setattr__`` a frozen ``__init__`` uses, which is safe
        exactly because every field is a plain value the codec just produced.
        """
        estimate = object.__new__(cls)
        fill = object.__setattr__
        fill(estimate, "window_start", window_start)
        fill(estimate, "frame_rate", frame_rate)
        fill(estimate, "bitrate_kbps", bitrate_kbps)
        fill(estimate, "frame_jitter_ms", frame_jitter_ms)
        fill(estimate, "resolution", resolution)
        fill(estimate, "source", source)
        return estimate


class QoEPipeline:
    """Estimate per-second VCA QoE from IP/UDP headers only.

    Typical use::

        pipeline = QoEPipeline.for_vca("teams")
        pipeline.train(calls)                # calls: list[CallResult] (lab data)
        estimates = pipeline.estimate(trace) # trace: PacketTrace or pcap path
        pipeline.save("teams-qoe.model.json")

    Without training, the pipeline falls back to the IP/UDP heuristic for
    frame rate, bitrate and frame jitter and reports no resolution estimate.

    Construction takes either a :class:`~repro.core.config.PipelineConfig`
    (the canonical form) or the legacy ``window_s`` kwarg, which overrides
    the config's window length.
    """

    def __init__(
        self,
        profile: VCAProfile,
        window_s: float | None = None,
        config: PipelineConfig | None = None,
    ) -> None:
        if config is None:
            config = PipelineConfig()
        if window_s is not None:
            config = config.replace(window_s=float(window_s))
        self.profile = profile
        self.config = config
        self.window_s = config.window_s
        delta_size, lookback = config.resolve_assembly(profile)
        self.heuristic = IPUDPHeuristic(
            delta_size=delta_size,
            lookback=lookback,
            classifier=MediaClassifier(video_size_threshold=profile.video_size_threshold),
        )
        self.ml = IPUDPMLEstimator.for_profile(profile)
        self._trained = False

    @classmethod
    def for_vca(
        cls,
        vca: str,
        window_s: float | None = None,
        config: PipelineConfig | None = None,
    ) -> "QoEPipeline":
        return cls(get_profile(vca), window_s=window_s, config=config)

    @property
    def is_trained(self) -> bool:
        return self._trained

    # -- training ----------------------------------------------------------------

    def train(self, calls: list[CallResult]) -> "QoEPipeline":
        """Train the per-metric random forests from labelled calls.

        The calls provide both traces and ground-truth logs (the labelled data
        a lab-style collection framework produces); only IP/UDP features are
        used for the models themselves.
        """
        if not calls:
            raise ValueError("need at least one labelled call to train")
        # Ground truth is logged per second; training windows must align with
        # whole ground-truth rows.  (Estimation supports fractional windows.)
        window_s = int(self.window_s)
        if window_s != self.window_s or window_s < 1:
            raise ValueError(
                f"training requires an integer window_s >= 1 (per-second ground "
                f"truth), got {self.window_s!r}"
            )
        from repro.core.resolution import binner_for_vca

        binner = binner_for_vca(self.profile.name)
        feature_rows: list[np.ndarray] = []
        targets: dict[str, list] = {metric: [] for metric in REGRESSION_METRICS}
        resolution_targets: list[str] = []
        for call in calls:
            if call.vca != self.profile.name:
                raise ValueError(
                    f"call {call.config.call_id} is for VCA {call.vca!r}, "
                    f"pipeline is for {self.profile.name!r}"
                )
            matched = match_windows_to_ground_truth(
                call.trace, call.ground_truth, window_s=window_s
            )
            for sample in matched:
                feature_rows.append(self.ml.features_for_window(sample.window))
                targets["frame_rate"].append(sample.ground_truth.frames_received)
                targets["bitrate"].append(sample.ground_truth.bitrate_kbps)
                targets["frame_jitter"].append(sample.ground_truth.frame_jitter_ms)
                resolution_targets.append(binner.label(sample.ground_truth.frame_height))

        if not feature_rows:
            raise ValueError("the provided calls produced no training windows")
        X = np.vstack(feature_rows)
        fit_targets = {metric: np.array(values) for metric, values in targets.items()}
        fit_targets["resolution"] = np.array(resolution_targets)
        self.ml.fit(X, fit_targets)
        self._trained = True
        return self

    # -- persistence ---------------------------------------------------------------

    def to_payload(self) -> dict:
        """The saved-pipeline payload as a plain dict (the wire format).

        This is exactly what :meth:`save` writes to disk: VCA profile name,
        :class:`~repro.core.config.PipelineConfig`, and -- when trained --
        every per-metric forest plus the feature schema.  Besides backing the
        file round-trip, it is the serialization the sharded monitor ships to
        its worker processes, so a worker reconstructs the same deployment a
        remote site would load from disk.
        """
        return {
            "format": PIPELINE_FORMAT,
            "version": PIPELINE_FORMAT_VERSION,
            "vca": self.profile.name,
            "config": self.config.to_dict(),
            "trained": self._trained,
            "model": self.ml.to_dict() if self._trained else None,
        }

    @classmethod
    def from_payload(cls, data: dict) -> "QoEPipeline":
        """Inverse of :meth:`to_payload` (bit-identical predictions)."""
        if data.get("format") != PIPELINE_FORMAT:
            raise ValueError(
                f"not a saved QoE pipeline (format {data.get('format')!r})"
            )
        if data.get("version") != PIPELINE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported pipeline format version {data.get('version')!r} "
                f"(this build reads version {PIPELINE_FORMAT_VERSION})"
            )
        pipeline = cls(get_profile(data["vca"]), config=PipelineConfig.from_dict(data["config"]))
        if data["trained"]:
            pipeline.ml = IPUDPMLEstimator.from_dict(data["model"])
            pipeline._trained = True
        return pipeline

    def save(self, path: str | Path) -> Path:
        """Persist the pipeline (config + trained forests) as versioned JSON.

        The file fully reconstructs the deployment (see :meth:`to_payload`),
        such that :meth:`load` reproduces predictions bit-identically.
        """
        path = Path(path)
        path.write_text(json.dumps(self.to_payload()))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "QoEPipeline":
        """Reconstruct a pipeline saved with :meth:`save`."""
        try:
            return cls.from_payload(json.loads(Path(path).read_text()))
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from None

    # -- estimation ----------------------------------------------------------------

    def _load_trace(self, trace: PacketTrace | str | Path) -> PacketTrace:
        if isinstance(trace, (str, Path)):
            return PacketTrace.from_pcap(trace, vca=self.profile.name)
        return trace

    def estimate(self, trace: PacketTrace | str | Path) -> list[PipelineEstimate]:
        """Per-window QoE estimates for a session trace.

        This is a batch adapter over the streaming engine
        (:class:`~repro.core.streaming.StreamingQoEPipeline`): in single-flow
        mode the trace's cached columnar block runs through the deployed
        ``push_block`` tick at once (trained: one feature pass, one forest
        walk), the engine is flushed and the windows of ``[start,
        end_time)`` are returned, bit-identical to per-packet ``push``.
        Only IP/UDP header fields (timestamp, 5-tuple, payload size) are
        ever read, so the trace is consumed exactly as an IP/UDP monitor
        would see it regardless of any RTP headers or ground-truth
        annotations it may carry.
        """
        from repro.core.streaming import StreamingQoEPipeline

        packet_trace = self._load_trace(trace)
        if not packet_trace:
            return []
        engine = StreamingQoEPipeline(self, config=self.config.replace(demux_flows=False))
        return engine.collect(packet_trace, batch=True)

    def estimate_call(self, call: CallResult) -> list[PipelineEstimate]:
        """Convenience wrapper estimating a simulated call's trace."""
        return self.estimate(call.trace)
