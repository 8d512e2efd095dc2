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

from repro.core.config import PipelineConfig
from repro.core.pipeline import PipelineEstimate, QoEPipeline
from repro.core.streaming import StreamEstimate, StreamingQoEPipeline
from repro.core.estimators import IPUDPMLEstimator, RTPMLEstimator
from repro.monitor import MonitorReport, QoEMonitor
from repro.cluster import FanInSink, FlowShardRouter, ShardedQoEMonitor
from repro.obs import (
    MetricsLogSink,
    MetricsRegistry,
    ObsConfig,
    parse_prometheus,
    render_prometheus,
)
from repro.sources import (
    IteratorSource,
    MergedSource,
    PacketSource,
    PcapSource,
    TraceSource,
    as_source,
    iter_blocks,
)
from repro.sinks import (
    CollectorSink,
    CSVSink,
    EstimateSink,
    FlowSummary,
    JSONLinesSink,
    MetricsSnapshotSink,
    SummarySink,
)
from repro.core.heuristic import IPUDPHeuristic
from repro.core.rtp_heuristic import RTPHeuristic
from repro.core.media import MediaClassifier
from repro.core.evaluation import EvaluationDataset, compare_methods
from repro.datasets.lab import LabDatasetConfig, build_lab_dataset
from repro.datasets.realworld import RealWorldConfig, build_real_world_dataset
from repro.datasets.synthetic import SweepConfig, build_impairment_sweep
from repro.net.block import PacketBlock
from repro.net.trace import PacketTrace
from repro.netem.conditions import ConditionSchedule, NetworkCondition
from repro.webrtc.session import CallResult, SessionConfig, simulate_call

__version__ = "1.0.0"

__all__ = [
    "QoEPipeline",
    "PipelineEstimate",
    "PipelineConfig",
    "StreamingQoEPipeline",
    "StreamEstimate",
    "QoEMonitor",
    "MonitorReport",
    "ShardedQoEMonitor",
    "FlowShardRouter",
    "FanInSink",
    "ObsConfig",
    "MetricsRegistry",
    "MetricsLogSink",
    "render_prometheus",
    "parse_prometheus",
    "PacketSource",
    "IteratorSource",
    "TraceSource",
    "PcapSource",
    "MergedSource",
    "as_source",
    "iter_blocks",
    "PacketBlock",
    "EstimateSink",
    "CollectorSink",
    "JSONLinesSink",
    "CSVSink",
    "SummarySink",
    "FlowSummary",
    "MetricsSnapshotSink",
    "IPUDPMLEstimator",
    "RTPMLEstimator",
    "IPUDPHeuristic",
    "RTPHeuristic",
    "MediaClassifier",
    "EvaluationDataset",
    "compare_methods",
    "LabDatasetConfig",
    "build_lab_dataset",
    "RealWorldConfig",
    "build_real_world_dataset",
    "SweepConfig",
    "build_impairment_sweep",
    "PacketTrace",
    "NetworkCondition",
    "ConditionSchedule",
    "SessionConfig",
    "CallResult",
    "simulate_call",
    "__version__",
]
