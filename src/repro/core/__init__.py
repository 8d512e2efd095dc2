"""The paper's primary contribution: VCA QoE estimation from passive traffic.

Four estimation methods are implemented, matching Section 3:

* :class:`~repro.core.heuristic.IPUDPHeuristic` -- frame-boundary detection
  from packet sizes only (Algorithm 1), then frame rate / bitrate / frame
  jitter from the recovered frames.
* :class:`~repro.core.estimators.IPUDPMLEstimator` -- random forests over the
  14 IP/UDP features of Table 1.
* :class:`~repro.core.rtp_heuristic.RTPHeuristic` -- the RTP-timestamp +
  marker-bit baseline (Michel et al.-style).
* :class:`~repro.core.estimators.RTPMLEstimator` -- random forests over RTP
  header features plus flow statistics.

Supporting pieces: media classification (:mod:`repro.core.media`), windowing
(:mod:`repro.core.windows`), feature extraction (:mod:`repro.core.features`),
resolution binning (:mod:`repro.core.resolution`), the evaluation protocol
(:mod:`repro.core.evaluation`), the heuristic error taxonomy
(:mod:`repro.core.errors`), the end-to-end pipeline
(:mod:`repro.core.pipeline`) and its single-pass per-flow execution engine
(:mod:`repro.core.streaming`).
"""

from repro._lazy import lazy_exports

#: Each public name and the module defining it, imported on first access.
_EXPORTS = {
    "MediaClassifier": "repro.core.media",
    "MediaClassificationReport": "repro.core.media",
    "FrameAssembler": "repro.core.frame_assembly",
    "assemble_frames": "repro.core.frame_assembly",
    "IPUDPHeuristic": "repro.core.heuristic",
    "RTPHeuristic": "repro.core.rtp_heuristic",
    "IPUDPMLEstimator": "repro.core.estimators",
    "RTPMLEstimator": "repro.core.estimators",
    "extract_rtp_features": "repro.core.features",
    "IPUDPFeatureAccumulator": "repro.core.features",
    "IPUDP_FEATURE_NAMES": "repro.core.features",
    "RTP_FEATURE_NAMES": "repro.core.features",
    "WindowedTrace": "repro.core.windows",
    "window_trace": "repro.core.windows",
    "ResolutionBinner": "repro.core.resolution",
    "TEAMS_RESOLUTION_BINS": "repro.core.resolution",
    "QoEPipeline": "repro.core.pipeline",
    "PipelineEstimate": "repro.core.pipeline",
    "PipelineConfig": "repro.core.config",
    "StreamingQoEPipeline": "repro.core.streaming",
    "StreamEstimate": "repro.core.streaming",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
