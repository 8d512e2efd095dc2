"""End-to-end sharded monitor tests (real spawn worker processes).

The pinned acceptance criteria of the cluster subsystem:

* for a multi-flow trace, ``ShardedQoEMonitor`` with N = 1, 2, 4 workers
  produces **exactly** the same estimates as the single-process
  ``QoEMonitor``, in the deterministic fan-in order ``(window_start,
  flow)``, and identical output for every N;
* cross-flow tick-batched inference is bit-identical to per-window
  inference;
* the workers are genuinely spawn-constructed from the ``QoEPipeline.save``
  payload (the PR 2 persistence wire format).
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import (
    CollectorSink,
    IteratorSource,
    QoEMonitor,
    QoEPipeline,
    ShardedQoEMonitor,
    SummarySink,
)
from repro.cluster import FlowShardRouter
from repro.cluster.fanin import flow_sort_key
from repro.sources.base import iter_blocks


def fan_in_order(items):
    """Sort collected single-process estimates into the fan-in contract order."""
    return sorted(items, key=lambda item: (item.estimate.window_start, flow_sort_key(item.flow)))


def as_rows(items):
    return [(item.flow, item.estimate) for item in items]


def run_single(pipeline, packets) -> CollectorSink:
    sink = CollectorSink()
    QoEMonitor(pipeline, IteratorSource(iter(packets)), sinks=sink).run()
    return sink


def run_sharded(pipeline, packets, n_workers, **kwargs):
    sink = CollectorSink()
    monitor = ShardedQoEMonitor(
        pipeline, IteratorSource(iter(packets)), sinks=sink, n_workers=n_workers, **kwargs
    )
    report = monitor.run()
    return sink, report, monitor


class TestShardedEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_heuristic_matches_single_process(self, many_flow_packets, n_workers):
        pipeline = QoEPipeline.for_vca("teams")
        single = run_single(pipeline, many_flow_packets)
        expected = as_rows(fan_in_order(single.items))
        sink, report, _ = run_sharded(pipeline, many_flow_packets, n_workers)
        assert as_rows(sink.items) == expected  # exact: same estimates, fan-in order
        assert report.n_packets == len(many_flow_packets)
        assert report.n_estimates == len(expected)
        assert report.n_flows == 4
        assert sink.closed

    def test_trained_matches_single_process_bit_identically(self, many_flow_packets, trained_pipeline):
        single = run_single(trained_pipeline, many_flow_packets)
        expected = as_rows(fan_in_order(single.items))
        assert all(estimate.source == "ml" for _, estimate in expected)
        for n_workers in (1, 2):
            sink, _, _ = run_sharded(trained_pipeline, many_flow_packets, n_workers)
            # Dataclass equality on floats == bit-identical predictions,
            # through the payload wire format and tick-batched inference.
            assert as_rows(sink.items) == expected

    def test_output_identical_for_every_worker_count(self, many_flow_packets):
        pipeline = QoEPipeline.for_vca("teams")
        outputs = [
            as_rows(run_sharded(pipeline, many_flow_packets, n)[0].items) for n in (1, 2, 4)
        ]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_from_model_deploys_saved_pipeline(self, many_flow_packets, trained_pipeline, tmp_path):
        path = tmp_path / "teams.model.json"
        trained_pipeline.save(path)
        single = run_single(trained_pipeline, many_flow_packets)
        sink = CollectorSink()
        ShardedQoEMonitor.from_model(
            path, IteratorSource(iter(many_flow_packets)), sinks=sink, n_workers=2
        ).run()
        assert as_rows(sink.items) == as_rows(fan_in_order(single.items))


class TestShardedMonitorSurface:
    def test_report_has_throughput_counters(self, many_flow_packets):
        _, report, _ = run_sharded(QoEPipeline.for_vca("teams"), many_flow_packets, 2)
        assert report.packets_consumed == report.n_packets == len(many_flow_packets)
        assert report.flows_seen == report.n_flows == 4
        assert report.wall_time_s > 0.0
        assert report.packets_per_s == pytest.approx(report.packets_consumed / report.wall_time_s)

    def test_per_shard_stats_cover_all_flows(self, many_flow_packets):
        _, report, monitor = run_sharded(QoEPipeline.for_vca("teams"), many_flow_packets, 2)
        assert len(monitor.shard_stats) == 2
        assert sum(stats["n_packets"] for stats in monitor.shard_stats) == len(many_flow_packets)
        assert sum(stats["n_flows"] for stats in monitor.shard_stats) == report.n_flows

    @pytest.mark.parametrize("transport", ["block", "shm"])
    def test_tick_size_is_readable_from_the_shard_stats(self, many_flow_packets, transport):
        """``n_packets / ticks`` is the rows an inference tick carried: one
        routed sub-block on the queue carrier, up to a slot's worth over shm
        (only while the worker is behind, so possibly still one)."""
        chunk_size, n_workers = 64, 2
        router = FlowShardRouter(n_workers)
        routed = [0] * n_workers
        for block in iter_blocks(IteratorSource(iter(many_flow_packets)), chunk_size):
            for shard, _ in router.partition_block(block):
                routed[shard] += 1
        _, _, monitor = run_sharded(
            QoEPipeline.for_vca("teams"),
            many_flow_packets,
            n_workers,
            chunk_size=chunk_size,
            transport=transport,
        )
        for shard, stats in enumerate(monitor.shard_stats):
            assert stats["sub_blocks"] == routed[shard] > 0
            assert 1 <= stats["ticks"] <= stats["sub_blocks"]
            if transport == "block":
                assert stats["ticks"] == stats["sub_blocks"]

    @pytest.mark.parametrize("transport", ["block", "shm"])
    def test_finished_monitor_is_freed_by_reference_count(self, many_flow_packets, transport):
        """A completed run leaves no queue, ring or process handle behind and
        no reference cycle, so dropping the monitor frees it (and the named
        semaphores under it) at once -- not whenever the cycle collector
        next runs, or at interpreter exit."""
        gc.collect()
        gc.disable()
        try:
            _, _, monitor = run_sharded(
                QoEPipeline.for_vca("teams"), many_flow_packets, 1, transport=transport
            )
            for name in ("_links", "_workers", "_out_queue", "_rings"):
                assert not hasattr(monitor, name)
            alive = weakref.ref(monitor)
            del monitor
            assert alive() is None
        finally:
            gc.enable()

    def test_sharded_monitor_is_one_shot(self, many_flow_packets):
        _, _, monitor = run_sharded(QoEPipeline.for_vca("teams"), many_flow_packets, 1)
        with pytest.raises(RuntimeError, match="already ran"):
            monitor.run()

    def test_rejects_single_flow_config(self, many_flow_packets):
        pipeline = QoEPipeline.for_vca("teams")
        with pytest.raises(ValueError, match="demux_flows"):
            ShardedQoEMonitor(
                pipeline,
                IteratorSource(iter(many_flow_packets)),
                config=pipeline.config.replace(demux_flows=False),
            )
        with pytest.raises(ValueError, match="chunk_size"):
            ShardedQoEMonitor(pipeline, IteratorSource(iter(many_flow_packets)), chunk_size=0)

    def test_sinks_compose_like_the_single_process_monitor(self, many_flow_packets):
        pipeline = QoEPipeline.for_vca("teams")
        collector = CollectorSink()
        summary = SummarySink(degraded_fps_threshold=1e9)
        monitor = ShardedQoEMonitor(
            pipeline,
            IteratorSource(iter(many_flow_packets)),
            sinks=[collector, summary],
            n_workers=2,
        )
        monitor.run()
        assert summary.closed
        assert len(summary.flows) == 4
        assert sum(s.windows for s in summary.flows.values()) == len(collector)

    def test_idle_eviction_evicts_and_never_double_emits(self):
        """Workers run the monitor's amortized idle sweep on their shards."""
        from repro.net.packet import IPv4Header, Packet, UDPHeader

        def make_packet(timestamp, dst_port):
            return Packet(
                timestamp=timestamp,
                ip=IPv4Header(src="192.0.2.10", dst="10.0.0.1"),
                udp=UDPHeader(src_port=3478, dst_port=dst_port),
                payload_size=1000,
            )

        long_lived = [make_packet(0.05 * i, 51000) for i in range(1200)]  # 0..60 s
        short = [make_packet(0.01 * i, 40000) for i in range(300)]  # dies at 3 s
        feed = sorted(long_lived + short, key=lambda p: p.timestamp)
        pipeline = QoEPipeline.for_vca("teams")
        # One worker co-locates the flows, so the long flow's stream time
        # drives the short flow's eviction (as in the single-process sweep);
        # with more shards an idle flow alone on its shard is simply flushed
        # at end of source instead.
        sink, report, _ = run_sharded(
            pipeline,
            feed,
            1,
            config=pipeline.config.replace(idle_timeout_s=10.0),
        )
        assert report.n_evicted_flows >= 1
        assert report.n_flows == 2
        per_flow: dict = {}
        for item in sink.items:
            per_flow.setdefault(item.flow, []).append(item.estimate.window_start)
        for starts in per_flow.values():
            assert len(starts) == len(set(starts))

    def test_chunk_size_does_not_change_output(self, many_flow_packets):
        pipeline = QoEPipeline.for_vca("teams")
        small, _, _ = run_sharded(pipeline, many_flow_packets, 2, chunk_size=64)
        large, _, _ = run_sharded(pipeline, many_flow_packets, 2, chunk_size=1024)
        assert as_rows(small.items) == as_rows(large.items)


class TestColumnarTransport:
    """The block transport (default): pickled ``PacketBlock`` sub-blocks."""

    def test_trained_block_transport_bit_identical_to_single_process(
        self, many_flow_packets, trained_pipeline
    ):
        single = run_single(trained_pipeline, many_flow_packets)
        expected = as_rows(fan_in_order(single.items))
        for n_workers in (1, 2, 4):
            sink, _, _ = run_sharded(
                trained_pipeline, many_flow_packets, n_workers, transport="block"
            )
            assert as_rows(sink.items) == expected

    def test_rejects_unknown_transport(self, many_flow_packets):
        from repro import IteratorSource

        with pytest.raises(ValueError, match="transport"):
            ShardedQoEMonitor(
                QoEPipeline.for_vca("teams"),
                IteratorSource(iter(many_flow_packets)),
                transport="carrier-pigeon",
            )

    @pytest.mark.parametrize(
        "removed, error",
        [
            ({"transport": "packets"}, ValueError),
            ({"shm_return": "queue"}, TypeError),
            ({"shm_batch_slots": False}, TypeError),
        ],
    )
    def test_removed_options_are_rejected_at_construction(self, many_flow_packets, removed, error):
        from repro import IteratorSource

        with pytest.raises(error, match=next(iter(removed))):
            ShardedQoEMonitor(
                QoEPipeline.for_vca("teams"), IteratorSource(iter(many_flow_packets)), **removed
            )
