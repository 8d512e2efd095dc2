"""The benchmark's contract as data: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is the driver-facing copy of the
names, units, directions and bounds below (``bench/tests`` pins that the two
agree); everything the driver's schema has no key for -- sizes, definitions,
which end-to-end metric a layer metric should move and on which workload --
lives only here and in ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DEFAULT_SEED",
    "END_TO_END",
    "PACE",
    "PACED_LATE_S",
    "PER_LAYER",
    "SMOKE_PACKETS",
    "WORKLOADS",
    "LayerMetric",
    "Metric",
    "Workload",
    "workload",
]

DEFAULT_SEED = 11

#: Offered load of the open-loop paced pass, as a multiple of stream time.
PACE = 3.0
#: A paced chunk released more than this late counts into ``sources.paced_late_share``.
PACED_LATE_S = 0.010
#: Packets of a ``--smoke`` input (harness self-test, not a measurement).
SMOKE_PACKETS = 2_000


@dataclass(frozen=True)
class Workload:
    """One input and the system under test it is run through."""

    name: str
    why: str
    n_flows: int
    n_packets: int
    #: ``"block"`` / ``"push"``: single-process ``QoEMonitor`` with or without
    #: ``block_size``; ``"sharded"``: ``ShardedQoEMonitor`` on ``transport="shm"``.
    engine: str
    block_size: int | None = None
    #: Input is written to a pcap and read back through ``PcapSource``.
    pcap: bool = False
    #: Trained (forest) mode instead of the IP/UDP heuristic.
    trained: bool = False
    n_workers: int = 0

    @property
    def sharded(self) -> bool:
        return self.engine == "sharded"


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="vantage512-block",
        why=(
            "512 concurrent flows through QoEMonitor(block_size=1024): ~2 rows per (flow, block) run, "
            "so per-call overhead in core.streaming / core.frame_assembly does almost all the work"
        ),
        n_flows=512,
        n_packets=100_000,
        engine="block",
        block_size=1024,
    ),
    Workload(
        name="vantage512-push",
        why=(
            "the same 512-flow trace through per-packet QoEMonitor(): the scalar reference path every "
            "block result is read against, and where a columnar-path change must move nothing"
        ),
        n_flows=512,
        n_packets=100_000,
        engine="push",
    ),
    Workload(
        name="pcap8-trained",
        why=(
            "8 flows, pcap file to JSONL file through a fitted forest: ~128 rows per flow-run, so "
            "net.pcap decode, core.features, ml inference and sinks carry the time, not the engine"
        ),
        n_flows=8,
        n_packets=60_000,
        engine="block",
        block_size=1024,
        pcap=True,
        trained=True,
    ),
    Workload(
        name="sharded64-shm",
        why=(
            "64 flows through ShardedQoEMonitor(n_workers=1, transport='shm'), rest default: the only "
            "workload that runs cluster.router, the wire codecs, cluster.shm, worker and fan-in"
        ),
        n_flows=64,
        n_packets=82_000,
        engine="sharded",
        n_workers=1,
    ),
)


@dataclass(frozen=True)
class Metric:
    """An end-to-end metric: what a user of the monitor sees."""

    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    definition: str


END_TO_END: tuple[Metric, ...] = (
    Metric(
        "wall_pps", "packets/s", "higher", 0.25,
        "packets read / wall time from the source's first read to the sink's close(), the wall time "
        "scaled to the reference host speed by the pass's own probes; median over the unpaced passes",
    ),
    Metric(
        "cpu_s_per_mpkt", "s/Mpkt", "lower", 0.25,
        "user+sys CPU seconds of the process and its reaped workers over one pass, per 10^6 packets, "
        "scaled to the reference host speed like wall_pps; median over the unpaced passes",
    ),
    Metric(
        "emit_lag_s_p50", "s", "lower", 0.25,
        "per estimate of a complete window: stream time when the sink received it minus the window's "
        "end; median.  Stream time is the newest timestamp the source handed out (single-process) "
        "or the open-loop pacing clock (sharded64-shm)",
    ),
    Metric(
        "emit_lag_s_p99", "s", "lower", 0.20,
        "the same samples, 99th percentile (nearest rank)",
    ),
    Metric(
        "peak_rss_mb", "MiB", "lower", 0.20,
        "ru_maxrss of the benchmark process plus ru_maxrss of its reaped children, read after the "
        "timed passes and before the reference computation",
    ),
    Metric(
        "setup_s", "s", "lower", 0.25,
        "input construction (columns, packet objects or pcap write, model fit; median of several "
        "builds) plus monitor construction and run() entry to the first source read (median over "
        "passes), at the reference host speed",
    ),
)


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric of the traced run."""

    name: str
    unit: str
    better: str
    #: The end-to-end metric an improvement here should move ...
    moves: str
    #: ... and the workload on which it should show.
    on: str


def _layer(prefix: str, moves: str, on: str, *rows: tuple[str, str, str]) -> tuple[LayerMetric, ...]:
    return tuple(LayerMetric(f"{prefix}.{name}", unit, better, moves, on) for name, unit, better in rows)


_OBS_STAGES = (
    "source_read", "push_block", "frame_assembly", "predict", "sink_emit",
    "router_partition", "forward_push", "ring_return", "fanin_release",
)

PER_LAYER: tuple[LayerMetric, ...] = (
    *_layer(
        "sources", "wall_pps", "pcap8-trained",
        ("read_s", "s", "lower"),
        ("blocks", "count", "lower"),
        ("rows_per_block_mean", "count", "higher"),
    ),
    LayerMetric("sources.paced_late_share", "ratio", "lower", "emit_lag_s_p99", "sharded64-shm"),
    *_layer(
        "net.pcap", "wall_pps", "pcap8-trained",
        ("read_blocks_s", "s", "lower"),
        ("bytes_read", "B", "lower"),
        ("ns_per_packet", "ns", "lower"),
    ),
    *_layer(
        "net.block", "wall_pps", "vantage512-block",
        ("slice_s", "s", "lower"),
        ("flow_groups_s", "s", "lower"),
        ("flow_groups_calls", "count", "lower"),
    ),
    *_layer(
        "net.block", "cpu_s_per_mpkt", "sharded64-shm",
        ("encode_s", "s", "lower"),
        ("decode_s", "s", "lower"),
        ("wire_bytes", "B", "lower"),
    ),
    *_layer(
        "core.streaming", "wall_pps", "vantage512-block",
        ("push_block_s", "s", "lower"),
        ("push_block_calls", "count", "lower"),
    ),
    *_layer(
        "core.streaming", "wall_pps", "vantage512-push",
        ("push_s", "s", "lower"),
        ("push_calls", "count", "lower"),
    ),
    *_layer(
        "core.streaming", "wall_pps", "vantage512-block",
        ("flush_s", "s", "lower"),
        ("window_indices_s", "s", "lower"),
        ("flow_runs", "count", "lower"),
        ("rows_per_flow_run_mean", "count", "higher"),
        ("flows", "count", "lower"),
    ),
    *_layer(
        "core.streaming", "peak_rss_mb", "vantage512-block",
        ("buffered_packets_peak", "count", "lower"),
        ("open_windows_peak", "count", "lower"),
    ),
    LayerMetric("core.streaming.self_s", "s", "lower", "wall_pps", "vantage512-block"),
    *_layer(
        "core.media", "wall_pps", "vantage512-block",
        ("video_mask_s", "s", "lower"),
        ("video_mask_calls", "count", "lower"),
    ),
    *_layer(
        "core.frame_assembly", "wall_pps", "vantage512-block",
        ("push_rows_s", "s", "lower"),
        ("push_rows_calls", "count", "lower"),
        ("rows_per_call_mean", "count", "higher"),
        ("us_per_call", "us", "lower"),
    ),
    LayerMetric("core.frame_assembly.push_s", "s", "lower", "wall_pps", "vantage512-push"),
    LayerMetric("core.frame_assembly.frames", "count", "higher", "wall_pps", "vantage512-block"),
    *_layer(
        "core.features", "wall_pps", "pcap8-trained",
        ("extend_s", "s", "lower"),
        ("extend_calls", "count", "lower"),
        ("rows", "count", "higher"),
        ("features_s", "s", "lower"),
    ),
    *_layer(
        "ml", "wall_pps", "pcap8-trained",
        ("predict_many_s", "s", "lower"),
        ("predict_calls", "count", "lower"),
        ("predict_rows", "count", "higher"),
        ("rows_per_call_mean", "count", "higher"),
    ),
    *_layer(
        "sinks", "wall_pps", "pcap8-trained",
        ("emit_s", "s", "lower"),
        ("emits", "count", "higher"),
        ("bytes_written", "B", "lower"),
    ),
    LayerMetric("monitor.residual_s", "s", "lower", "wall_pps", "vantage512-block"),
    LayerMetric("monitor.attributed_share", "ratio", "higher", "wall_pps", "vantage512-block"),
    *_layer(
        "cluster.router", "cpu_s_per_mpkt", "sharded64-shm",
        ("partition_block_s", "s", "lower"),
        ("partition_calls", "count", "lower"),
        ("sub_blocks", "count", "lower"),
    ),
    LayerMetric("cluster.router.shard_skew", "ratio", "lower", "wall_pps", "sharded64-shm"),
    LayerMetric("cluster.shm.roundtrip_s", "s", "lower", "cpu_s_per_mpkt", "sharded64-shm"),
    *_layer(
        "cluster.shm", "emit_lag_s_p50", "sharded64-shm",
        ("fwd_slots_written", "count", "higher"),
        ("fwd_segments_per_slot_max", "count", "lower"),
        ("fwd_occupancy_hwm", "count", "lower"),
        ("rev_slots_written", "count", "higher"),
        ("queue_fallbacks", "count", "lower"),
    ),
    *_layer(
        "cluster.worker", "wall_pps", "sharded64-shm",
        ("engine_s_max", "s", "lower"),
        ("engine_s_sum", "s", "lower"),
        ("flow_runs", "count", "lower"),
        ("rows_per_flow_run_mean", "count", "higher"),
        ("watermark_s", "s", "lower"),
    ),
    *_layer(
        "net.estwire", "cpu_s_per_mpkt", "sharded64-shm",
        ("encode_s", "s", "lower"),
        ("decode_s", "s", "lower"),
        ("wire_bytes", "B", "lower"),
        ("batches", "count", "lower"),
    ),
    *_layer(
        "cluster.fanin", "cpu_s_per_mpkt", "sharded64-shm",
        ("accept_s", "s", "lower"),
        ("accept_calls", "count", "lower"),
        ("released", "count", "higher"),
    ),
    *_layer(
        "cluster.monitor", "wall_pps", "sharded64-shm",
        ("timing_setup_s", "s", "lower"),
        ("timing_stream_s", "s", "lower"),
        ("timing_drain_s", "s", "lower"),
        ("critical_path_s", "s", "lower"),
        ("wait_share", "ratio", "lower"),
    ),
    LayerMetric("obs.overhead_share", "ratio", "lower", "wall_pps", "vantage512-block"),
    *(
        LayerMetric(f"obs.stage_s.{stage}", "s", "lower", "wall_pps", "vantage512-block")
        for stage in _OBS_STAGES
    ),
    LayerMetric("trace.overhead_share", "ratio", "lower", "wall_pps", "vantage512-block"),
)


def workload(name: str) -> Workload:
    for item in WORKLOADS:
        if item.name == name:
            return item
    raise KeyError(f"unknown workload {name!r}; choose from {[w.name for w in WORKLOADS]}")
