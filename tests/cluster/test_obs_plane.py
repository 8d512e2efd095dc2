"""The telemetry plane end-to-end: determinism, fleet merge, report surfaces.

PR 8 acceptance criteria pinned here:

* **observability is free of side effects**: with ``ObsConfig(enabled=True)``
  the sharded monitor emits estimates bit-identical to (and in the same
  fan-in order as) the obs-off run and the single-process monitor -- over
  both transports, N = 1, 2, 4 workers, heuristic and trained pipelines,
  and across forced live migrations;
* **fleet merge is exact**: the sum of every per-worker counter delta the
  parent received equals the parent registry's totals -- across migration
  chains and across a worker death mid-run;
* **transport counters mirror the report**: the registry's
  ``qoe_transport_*`` series match ``MonitorReport.transport`` exactly,
  including the queue-fallback paths (RTP blocks, tiny slots);
* the report's ``timing``/``metrics``/``shard_loads``/``migration``
  surfaces are populated and excluded from report equality.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro import (
    CollectorSink,
    IteratorSource,
    MetricsLogSink,
    ObsConfig,
    QoEMonitor,
    QoEPipeline,
    ShardedQoEMonitor,
    parse_prometheus,
    render_prometheus,
)
from repro.cluster import ScheduledRebalancer, shm_available
from repro.cluster.fanin import flow_sort_key
from repro.cluster.router import FlowShardRouter
from repro.net.flows import FlowKey
from repro.net.packet import IPv4Header, Packet, UDPHeader
from repro.obs.registry import render_key
from repro.rtp.header import RTPHeader

#: The flows of the conftest ``many_flow_packets`` fixture.
KEYS = [FlowKey("192.0.2.10", 3478, f"10.0.0.{i + 1}", 50000 + i) for i in range(4)]

OBS = ObsConfig(enabled=True)

TRANSPORTS = [
    "block",
    pytest.param(
        "shm",
        marks=pytest.mark.skipif(
            not shm_available(),
            reason="multiprocessing.shared_memory unavailable on this platform",
        ),
    ),
]

_spec = importlib.util.spec_from_file_location(
    "_cluster_conftest_obs", Path(__file__).resolve().parent / "conftest.py"
)
_cluster_conftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_cluster_conftest)


def fan_in_order(items):
    return sorted(items, key=lambda item: (item.estimate.window_start, flow_sort_key(item.flow)))


def as_rows(items):
    return [(item.flow, item.estimate) for item in items]


def forced_schedule(n_workers):
    """Two real cuts: KEYS[0] leaves home, then comes back."""
    router = FlowShardRouter(n_workers)
    home = router.shard_of_key(KEYS[0])
    away = (home + 1) % n_workers
    return [(1.5, KEYS[0], away), (5.0, KEYS[0], home)]


def run_sharded(pipeline, packets, n_workers, monitor_cls=ShardedQoEMonitor, **kwargs):
    sink = CollectorSink()
    monitor = monitor_cls(
        pipeline, IteratorSource(iter(packets)), sinks=sink, n_workers=n_workers, **kwargs
    )
    report = monitor.run()
    return sink, report, monitor


def counter(metrics: dict, series: str) -> float:
    """A counter from a snapshot, with absent series reading as 0.

    Zero-valued worker counters never ship (a delta carries increments
    only), so the parent's view may lack series the report carries as 0 --
    absence and 0 are the same reading.
    """
    return metrics.get("counters", {}).get(series, 0)


@pytest.fixture(scope="module")
def heuristic_pipeline():
    return QoEPipeline.for_vca("teams")


@pytest.fixture(scope="module")
def single_expected(many_flow_packets):
    """Single-process reference output per pipeline, in fan-in contract order."""
    cache: dict[int, list] = {}

    def reference(pipeline):
        key = id(pipeline)
        if key not in cache:
            sink = CollectorSink()
            QoEMonitor(pipeline, IteratorSource(iter(many_flow_packets)), sinks=sink).run()
            cache[key] = as_rows(fan_in_order(sink.items))
        return cache[key]

    return reference


class TestObsDeterminism:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_heuristic_bit_identical_to_obs_off_and_single(
        self, many_flow_packets, single_expected, heuristic_pipeline, n_workers, transport
    ):
        expected = single_expected(heuristic_pipeline)
        observed, report, monitor = run_sharded(
            heuristic_pipeline, many_flow_packets, n_workers, transport=transport, obs=OBS
        )
        assert as_rows(observed.items) == expected
        # The report's compare fields are unchanged by observability, so an
        # obs-on run equals the seed obs-off runs the other tests pin.
        plain, plain_report, _ = run_sharded(
            heuristic_pipeline, many_flow_packets, n_workers, transport=transport
        )
        assert as_rows(plain.items) == as_rows(observed.items)
        assert report == plain_report
        assert plain_report.metrics == {}
        assert report.metrics["counters"]
        assert monitor.registry.counter_value("qoe_router_packets_total") == report.n_packets

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_trained_bit_identical_to_single(
        self, many_flow_packets, single_expected, trained_pipeline, transport
    ):
        expected = single_expected(trained_pipeline)
        assert all(estimate.source == "ml" for _, estimate in expected)
        observed, report, _ = run_sharded(
            trained_pipeline, many_flow_packets, 2, transport=transport, obs=OBS
        )
        assert as_rows(observed.items) == expected
        # Trained mode exercises the inference span: every predicted window
        # went through one timed predict_many call.
        assert counter(report.metrics, "qoe_engine_predict_windows_total") == report.n_estimates
        assert report.metrics["histograms"]['qoe_stage_seconds{stage="predict"}']["count"] >= 1

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_forced_migration_bit_identical(
        self, many_flow_packets, single_expected, heuristic_pipeline, transport
    ):
        expected = single_expected(heuristic_pipeline)
        observed, report, monitor = run_sharded(
            heuristic_pipeline,
            many_flow_packets,
            2,
            transport=transport,
            rebalance=ScheduledRebalancer(forced_schedule(2)),
            obs=OBS,
        )
        assert as_rows(observed.items) == expected
        assert len(monitor.migrations) == 2
        assert counter(report.metrics, "qoe_migrations_total") == 2
        assert report.metrics["histograms"]['qoe_stage_seconds{stage="migration_cut"}']["count"] == 2
        # The satellite surface: the migration-cut latency summary.
        assert report.migration["count"] == 2
        assert report.migration["total_latency_s"] == pytest.approx(
            sum(m["latency_s"] for m in monitor.migrations)
        )
        assert report.migration["max_latency_s"] == max(m["latency_s"] for m in monitor.migrations)
        assert report.migration["mean_latency_s"] == pytest.approx(
            report.migration["total_latency_s"] / 2
        )


class _DeltaRecordingMonitor(ShardedQoEMonitor):
    """Records every worker metrics delta exactly as the parent receives it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shipped_deltas: list[dict] = []

    def _handle(self, message):
        kind = message[0]
        carrier = None
        if kind == "progress":
            carrier = message[4]
        elif kind == "est":
            carrier = message[2]
        elif kind == "done":
            carrier = message[3]
        if carrier and "metrics" in carrier:
            self.shipped_deltas.append(carrier["metrics"])
        super()._handle(message)


def summed_counters(deltas) -> dict:
    totals: dict = {}
    for delta in deltas:
        for key, value in delta.get("counters", {}).items():
            totals[key] = totals.get(key, 0) + value
    return totals


def summed_histogram_counts(deltas) -> dict:
    totals: dict = {}
    for delta in deltas:
        for key, (counts, _total) in delta.get("histograms", {}).items():
            totals[key] = totals.get(key, 0) + sum(counts)
    return totals


def assert_merge_exact(monitor) -> None:
    """Parent totals equal the sum of the shipped worker deltas, key by key.

    Worker-origin series never collide with parent-origin ones (engine
    counters and worker stage spans are recorded only in workers; the
    forward-direction transport counters only in the parent), so per-key
    equality is the exactness criterion.
    """
    assert monitor.shipped_deltas, "no deltas reached the parent"
    registry = monitor.registry
    for key, total in summed_counters(monitor.shipped_deltas).items():
        name, labels = key
        assert registry.counter_value(name, labels) == total, render_key(key)
    snapshot = registry.snapshot()
    for key, count in summed_histogram_counts(monitor.shipped_deltas).items():
        assert snapshot["histograms"][render_key(key)]["count"] == count, render_key(key)


class TestFleetMerge:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_counter_deltas_sum_exactly(self, many_flow_packets, transport):
        _, report, monitor = run_sharded(
            QoEPipeline.for_vca("teams"),
            many_flow_packets,
            2,
            monitor_cls=_DeltaRecordingMonitor,
            transport=transport,
            obs=OBS,
        )
        assert_merge_exact(monitor)
        # And the merged totals mean what they say: every routed packet was
        # consumed by exactly one engine, every estimate released once.
        registry = monitor.registry
        assert registry.counter_value("qoe_engine_packets_total") == report.n_packets
        assert registry.counter_value("qoe_engine_packets_total") == registry.counter_value(
            "qoe_router_packets_total"
        )
        assert registry.counter_value("qoe_engine_estimates_total") == report.n_estimates
        assert registry.counter_value("qoe_fanin_released_total") == report.n_estimates

    def test_merge_exact_across_migration_chains(self, many_flow_packets):
        """KEYS[0] re-homes three times; delta bookkeeping must not skew."""
        schedule = [(1.0, KEYS[0], 1), (2.5, KEYS[0], 0), (4.0, KEYS[0], 1)]
        _, report, monitor = run_sharded(
            QoEPipeline.for_vca("teams"),
            many_flow_packets,
            2,
            monitor_cls=_DeltaRecordingMonitor,
            rebalance=ScheduledRebalancer(schedule),
            obs=OBS,
        )
        assert len(monitor.migrations) == 3
        assert_merge_exact(monitor)
        assert monitor.registry.counter_value("qoe_engine_packets_total") == report.n_packets
        assert report.migration["count"] == 3

    def test_merge_exact_when_a_worker_dies_mid_run(self, many_flow_packets):
        """Deltas merged before a death stay exact; none are double-counted.

        Shard 1 is terminated the first time the parent hears from any
        worker (so the stream is still in flight); the run fails, but every
        delta the parent *did* receive must still sum to its registry.
        """

        class _KillingMonitor(_DeltaRecordingMonitor):
            killed = False

            def _handle(self, message):
                if not self.killed and message[0] in ("progress", "est"):
                    self.killed = True
                    self._workers[1].terminate()
                    self._workers[1].process.join(timeout=5.0)
                super()._handle(message)

        sink = CollectorSink()
        monitor = _KillingMonitor(
            QoEPipeline.for_vca("teams"),
            IteratorSource(iter(many_flow_packets)),
            sinks=sink,
            n_workers=2,
            transport="block",
            obs=OBS,
        )
        with pytest.raises(RuntimeError, match="shard worker 1"):
            monitor.run()
        assert monitor.killed
        assert_merge_exact(monitor)

    def test_obs_off_ships_no_deltas(self, many_flow_packets):
        _, report, monitor = run_sharded(
            QoEPipeline.for_vca("teams"),
            many_flow_packets,
            2,
            monitor_cls=_DeltaRecordingMonitor,
        )
        assert monitor.shipped_deltas == []
        assert monitor.registry is None
        assert monitor.metrics() == {}
        assert report.metrics == {}


@pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable on this platform"
)
class TestTransportCounters:
    COUNTS = ("slots_written", "slot_reuses", "segments_written", "queue_fallbacks")
    HWMS = ("max_segments_per_slot", "occupancy_hwm")

    def assert_mirrors_report(self, report, monitor) -> None:
        """Registry transport series == ``MonitorReport.transport``, exactly."""
        for direction, agg in report.transport.items():
            if direction == "rebalance":
                continue
            for key in self.COUNTS:
                series = f'qoe_transport_{key}_total{{direction="{direction}"}}'
                assert counter(report.metrics, series) == agg[key], series
            for key in self.HWMS:
                per_shard = [
                    report.metrics["gauges"].get(
                        f'qoe_transport_{key}{{direction="{direction}",shard="{shard}"}}'
                    )
                    for shard in range(monitor.n_workers)
                ]
                observed = [value for value in per_shard if value is not None]
                assert observed and max(observed) == agg[key], (direction, key)

    def test_ring_counters_match_report(self, many_flow_packets):
        _, report, monitor = run_sharded(
            QoEPipeline.for_vca("teams"),
            many_flow_packets,
            2,
            transport="shm",
            chunk_size=32,
            obs=OBS,
        )
        self.assert_mirrors_report(report, monitor)
        for direction in ("forward", "reverse"):
            assert report.transport[direction]["slots_written"] >= 1

    def test_split_slots_still_match_report(self, many_flow_packets):
        """1 KiB slots force block and batch splitting in both directions."""
        _, report, monitor = run_sharded(
            QoEPipeline.for_vca("teams"),
            many_flow_packets,
            2,
            transport="shm",
            shm_slot_bytes=1024,
            obs=OBS,
        )
        self.assert_mirrors_report(report, monitor)

    def test_queue_fallbacks_counted(self):
        """RTP object columns cannot flat-encode: every block falls back to
        the pickling queue, and the registry counts each fallback."""
        rtp_packets = [
            Packet(
                timestamp=0.01 * i,
                ip=IPv4Header(src="192.0.2.10", dst="10.0.0.1"),
                udp=UDPHeader(src_port=3478, dst_port=50000 + i % 3),
                payload_size=1000,
                rtp=RTPHeader(payload_type=96, sequence_number=i, timestamp=i * 90, ssrc=7),
            )
            for i in range(400)
        ]
        _, report, monitor = run_sharded(
            QoEPipeline.for_vca("teams"),
            rtp_packets,
            2,
            transport="shm",
            chunk_size=64,
            obs=OBS,
        )
        assert report.transport["forward"]["queue_fallbacks"] >= 1
        self.assert_mirrors_report(report, monitor)


class TestReportSurfaces:
    def test_timing_breakdown_sums_to_wall_time(self, many_flow_packets):
        # Timing is recorded unconditionally -- the dilution fix is not
        # gated on observability.
        _, report, _ = run_sharded(QoEPipeline.for_vca("teams"), many_flow_packets, 2)
        timing = report.timing
        assert set(timing) == {"wall_time_s", "setup_s", "stream_s", "drain_s"}
        assert timing["wall_time_s"] == report.wall_time_s
        assert timing["setup_s"] + timing["stream_s"] + timing["drain_s"] == pytest.approx(
            timing["wall_time_s"]
        )
        assert all(value >= 0.0 for value in timing.values())
        # First source read to sinks closed: the drain phase -- where a
        # sharded run does most of its work -- counts, worker spawn (setup)
        # does not, so the reading still exceeds the diluted one.
        assert report.stream_packets_per_s == report.n_packets / (
            timing["stream_s"] + timing["drain_s"]
        )
        assert report.stream_packets_per_s > report.packets_per_s

    def test_stream_packets_per_s_falls_back_without_timing(self):
        from repro.monitor import MonitorReport

        report = MonitorReport(
            n_packets=100, n_estimates=1, n_flows=1, n_evicted_flows=0, wall_time_s=2.0
        )
        assert report.stream_packets_per_s == report.packets_per_s == 50.0

    def test_shard_loads_in_report(self, many_flow_packets):
        _, report, _ = run_sharded(QoEPipeline.for_vca("teams"), many_flow_packets, 2)
        assert len(report.shard_loads) == 2
        for load in report.shard_loads:
            assert set(load) == {"live_flows", "buffered_packets", "open_windows"}
        assert sum(load["live_flows"] for load in report.shard_loads) == 4
        assert report.migration == {}  # no rebalancer, no summary

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_stage_spans_cover_the_hot_path(self, many_flow_packets, transport):
        _, report, _ = run_sharded(
            QoEPipeline.for_vca("teams"), many_flow_packets, 2, transport=transport, obs=OBS
        )
        stages = {
            series.split('stage="')[1].rstrip('"}')
            for series in report.metrics["histograms"]
            if series.startswith("qoe_stage_seconds")
        }
        expected = {"source_read", "router_partition", "forward_push", "push_block",
                    "frame_assembly", "fanin_release", "sink_emit"}
        if transport == "shm":
            expected.add("ring_return")
        assert expected <= stages

    def test_per_shard_gauges_and_scrape_parse(self, many_flow_packets):
        _, report, monitor = run_sharded(
            QoEPipeline.for_vca("teams"), many_flow_packets, 2, obs=OBS
        )
        gauges = report.metrics["gauges"]
        live = [gauges[f'qoe_shard_live_flows{{shard="{s}"}}'] for s in range(2)]
        assert sum(live) == 4
        # metrics() after the run reproduces the report snapshot, and the
        # whole fleet view renders as parseable Prometheus exposition text.
        assert monitor.metrics() == report.metrics
        series = parse_prometheus(render_prometheus(report.metrics))
        assert series["qoe_router_packets_total"] == report.n_packets
        assert series["qoe_fanin_released_total"] == report.n_estimates

    def test_emit_lag_histogram_and_watermark_lag_gauges(self, many_flow_packets):
        """Lag from the system's own output, in stream time: one histogram
        sample per estimate of a window the stream moved past (the windows
        the end-of-capture flush closed have no lag), and per shard how far
        its fan-in watermark trails the newest packet routed to it."""
        sink, report, monitor = run_sharded(
            QoEPipeline.for_vca("teams"), many_flow_packets, 2, obs=OBS
        )
        window_s = monitor.config.window_s
        last_ts = many_flow_packets[-1].timestamp
        complete = [
            item for item in sink.items if item.estimate.window_start + window_s <= last_ts
        ]
        assert 0 < len(complete) < len(sink.items)
        histogram = report.metrics["histograms"]["qoe_emit_lag_seconds"]
        assert histogram["count"] == len(complete)
        assert 0.0 <= histogram["sum"] <= len(complete) * (last_ts - window_s)
        gauges = report.metrics["gauges"]
        lags = [gauges[f'qoe_shard_watermark_lag_seconds{{shard="{s}"}}'] for s in range(2)]
        assert all(math.isfinite(lag) and lag >= 0.0 for lag in lags)
        series = parse_prometheus(render_prometheus(report.metrics))
        assert series["qoe_emit_lag_seconds_count"] == len(complete)
        assert series['qoe_emit_lag_seconds_bucket{le="+Inf"}'] == len(complete)
        assert series['qoe_emit_lag_seconds_bucket{le="10"}'] == len(complete)
        assert [series[f'qoe_shard_watermark_lag_seconds{{shard="{s}"}}'] for s in range(2)] == lags
        # Obs-off computes none of it.
        _, plain_report, plain = run_sharded(QoEPipeline.for_vca("teams"), many_flow_packets, 2)
        assert plain_report.metrics == {} and plain._newest_routed == [-math.inf] * 2

    def test_metrics_log_sink_rides_a_sharded_run(self, many_flow_packets, tmp_path):
        path = tmp_path / "fleet_metrics.jsonl"
        sink = MetricsLogSink(path, interval_s=2.0)
        collector = CollectorSink()
        monitor = ShardedQoEMonitor(
            QoEPipeline.for_vca("teams"),
            IteratorSource(iter(many_flow_packets)),
            sinks=[collector, sink],
            n_workers=2,
            obs=OBS,
        )
        monitor.run()
        assert sink.registry is monitor.registry  # bound automatically at run()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == sink.lines_written >= 2  # interval lines + final
        final = lines[-1]["metrics"]
        assert final["counters"]["qoe_fanin_released_total"] == len(collector.items)
