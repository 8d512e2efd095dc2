"""repro -- reproduction of "Estimating WebRTC Video QoE Metrics Without Using
Application Headers" (IMC 2023).

The package estimates per-second video QoE metrics (frame rate, bitrate,
frame jitter, resolution) of WebRTC video-conferencing sessions from passive
network measurements using **only IP/UDP headers**, and compares against
RTP-header baselines.  Because the original measurement environment (real VCA
clients, browser automation, household deployments) is not available offline,
the package also contains a full WebRTC traffic simulator, network emulator
and dataset builders that reproduce the relevant transport-level behaviour
(the README's introduction gives the substitution rationale).

Quickstart (train once, deploy many)::

    from repro import (
        QoEPipeline, QoEMonitor, PcapSource, JSONLinesSink, SummarySink,
        build_lab_dataset, LabDatasetConfig,
    )

    lab = build_lab_dataset(LabDatasetConfig(calls_per_vca=4))
    pipeline = QoEPipeline.for_vca("teams").train(lab["teams"])
    pipeline.save("teams.model.json")

    monitor = QoEMonitor.from_model(
        "teams.model.json",
        source=PcapSource("capture.pcap"),
        sinks=[JSONLinesSink("estimates.jsonl"), SummarySink(degraded_fps_threshold=18)],
    )
    report = monitor.run()

The public API is composable Source -> Engine -> Sink: packet providers live
in :mod:`repro.sources`, estimate consumers in :mod:`repro.sinks`, behaviour
knobs in the frozen :class:`~repro.core.config.PipelineConfig`, and
:class:`~repro.monitor.QoEMonitor` wires one of each around the streaming
engine.
"""

from repro._lazy import lazy_exports

#: Each public name and the module defining it, imported on first access:
#: ``import repro`` itself loads nothing (a spawned worker imports the data
#: plane only).
_EXPORTS = {
    "QoEPipeline": "repro.core.pipeline",
    "PipelineEstimate": "repro.core.pipeline",
    "PipelineConfig": "repro.core.config",
    "StreamingQoEPipeline": "repro.core.streaming",
    "StreamEstimate": "repro.core.streaming",
    "QoEMonitor": "repro.monitor",
    "MonitorReport": "repro.monitor",
    "ShardedQoEMonitor": "repro.cluster",
    "FlowShardRouter": "repro.cluster",
    "FanInSink": "repro.cluster",
    "ObsConfig": "repro.obs",
    "MetricsRegistry": "repro.obs",
    "MetricsLogSink": "repro.obs",
    "render_prometheus": "repro.obs",
    "parse_prometheus": "repro.obs",
    "PacketSource": "repro.sources",
    "IteratorSource": "repro.sources",
    "TraceSource": "repro.sources",
    "PcapSource": "repro.sources",
    "MergedSource": "repro.sources",
    "as_source": "repro.sources",
    "iter_blocks": "repro.sources",
    "PacketBlock": "repro.net.block",
    "EstimateSink": "repro.sinks",
    "CollectorSink": "repro.sinks",
    "JSONLinesSink": "repro.sinks",
    "CSVSink": "repro.sinks",
    "SummarySink": "repro.sinks",
    "FlowSummary": "repro.sinks",
    "MetricsSnapshotSink": "repro.sinks",
    "IPUDPMLEstimator": "repro.core.estimators",
    "RTPMLEstimator": "repro.core.estimators",
    "IPUDPHeuristic": "repro.core.heuristic",
    "RTPHeuristic": "repro.core.rtp_heuristic",
    "MediaClassifier": "repro.core.media",
    "EvaluationDataset": "repro.core.evaluation",
    "compare_methods": "repro.core.evaluation",
    "LabDatasetConfig": "repro.datasets.lab",
    "build_lab_dataset": "repro.datasets.lab",
    "RealWorldConfig": "repro.datasets.realworld",
    "build_real_world_dataset": "repro.datasets.realworld",
    "SweepConfig": "repro.datasets.synthetic",
    "build_impairment_sweep": "repro.datasets.synthetic",
    "PacketTrace": "repro.net.trace",
    "NetworkCondition": "repro.netem.conditions",
    "ConditionSchedule": "repro.netem.conditions",
    "SessionConfig": "repro.webrtc.session",
    "CallResult": "repro.webrtc.session",
    "simulate_call": "repro.webrtc.session",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
