"""Source -> Engine -> Sink facade tests.

Acceptance contract of the API redesign: a :class:`repro.QoEMonitor` run over
``PcapSource`` + ``CollectorSink`` yields estimates **equal** to
``QoEPipeline.estimate`` on the same trace, sources compose (k-way merge with
arbitrary inter-source skew), sinks are pluggable, and the legacy collection
methods survive as deprecated aliases.
"""

import json
from dataclasses import replace

import pytest

from repro import (
    CSVSink,
    CollectorSink,
    IteratorSource,
    JSONLinesSink,
    MergedSource,
    MetricsSnapshotSink,
    PcapSource,
    QoEMonitor,
    QoEPipeline,
    SummarySink,
    TraceSource,
    as_source,
)
from repro.core.streaming import StreamingQoEPipeline
from repro.net.flows import five_tuple
from repro.net.packet import IPv4Header, Packet, UDPHeader
from repro.net.trace import PacketTrace


def assert_estimates_equal(batch, streamed, check_resolution=True):
    """Row-by-row comparison of PipelineEstimate sequences (float tolerance).

    The stream may close one extra window (the one starting exactly at
    end_time), which the batch contract excludes.
    """
    assert len(streamed) >= len(batch)
    assert len(streamed) <= len(batch) + 1
    for expected, actual in zip(batch, streamed):
        assert actual.window_start == pytest.approx(expected.window_start, abs=1e-12)
        assert actual.frame_rate == pytest.approx(expected.frame_rate, abs=1e-9)
        assert actual.bitrate_kbps == pytest.approx(expected.bitrate_kbps, abs=1e-9)
        assert actual.frame_jitter_ms == pytest.approx(expected.frame_jitter_ms, abs=1e-9)
        assert actual.source == expected.source
        if check_resolution:
            assert actual.resolution == expected.resolution


def make_packet(timestamp, size, dst_port=51000):
    return Packet(
        timestamp=timestamp,
        ip=IPv4Header(src="192.0.2.10", dst="10.0.0.1"),
        udp=UDPHeader(src_port=3478, dst_port=dst_port),
        payload_size=size,
    )


def remap_flow(trace: PacketTrace, src="172.16.5.5", src_port=3478, dst="10.0.0.99", dst_port=51000):
    """A copy of ``trace`` on a distinct 5-tuple (a second concurrent session)."""
    return PacketTrace(
        [
            replace(
                p,
                ip=IPv4Header(src=src, dst=dst, ttl=p.ip.ttl, protocol=p.ip.protocol),
                udp=UDPHeader(src_port=src_port, dst_port=dst_port),
            )
            for p in trace
        ],
        vca=trace.vca,
    )


@pytest.fixture(scope="module")
def teams_pcap(teams_call, tmp_path_factory):
    path = tmp_path_factory.mktemp("captures") / "teams.pcap"
    teams_call.trace.to_pcap(path)
    return path


class TestMonitorEquivalence:
    def test_pcap_source_batch_grid_equals_pipeline_estimate(self, teams_call, teams_pcap):
        """The pinned acceptance criterion: exact row equality with estimate()."""
        pipeline = QoEPipeline.for_vca("teams")
        collector = CollectorSink()
        monitor = QoEMonitor(
            pipeline,
            PcapSource(teams_pcap),
            sinks=collector,
            config=pipeline.config.replace(demux_flows=False),
            batch_grid=True,
        )
        report = monitor.run()
        batch = pipeline.estimate(teams_pcap)
        assert collector.estimates == batch  # exact equality, same code path
        assert report.n_estimates == len(batch)
        assert report.n_packets == len(teams_call.trace)
        assert collector.closed

    def test_trained_pcap_monitor_equals_pipeline_estimate(self, teams_calls_small, tmp_path):
        pipeline = QoEPipeline.for_vca("teams").train(teams_calls_small)
        path = tmp_path / "call.pcap"
        teams_calls_small[0].trace.to_pcap(path)
        collector = CollectorSink()
        QoEMonitor(
            pipeline,
            PcapSource(path),
            sinks=collector,
            config=pipeline.config.replace(demux_flows=False),
            batch_grid=True,
        ).run()
        assert collector.estimates == pipeline.estimate(path)
        assert all(e.source == "ml" for e in collector.estimates)

    def test_streaming_monitor_matches_batch_per_window(self, teams_pcap):
        """Streaming (demux) mode over a pcap matches batch rows on that pcap.

        (The comparison must use the same capture file on both sides: writing
        a pcap quantizes timestamps to microseconds.)
        """
        pipeline = QoEPipeline.for_vca("teams")
        collector = CollectorSink()
        QoEMonitor(pipeline, PcapSource(teams_pcap), sinks=collector).run()
        flows = {item.flow for item in collector.items}
        assert len(flows) == 1
        assert_estimates_equal(pipeline.estimate(teams_pcap), collector.estimates)

    @pytest.mark.parametrize("block_size", [None, 1, 97, 4096])
    def test_batch_grid_ticks_block_size_rows(self, teams_call, teams_pcap, block_size, monkeypatch):
        """``block_size`` sets the batch grid's tick (the source's native
        size when ``None``); the pcap is read by its slab decoder, never
        per packet, and the estimates equal ``estimate`` at every size."""
        from repro.core.streaming import StreamingQoEPipeline
        from repro.sources.base import DEFAULT_BLOCK_SIZE

        def no_iter(self):
            raise AssertionError("batch_grid iterated the pcap packet by packet")

        ticks = []
        push_block = StreamingQoEPipeline.push_block

        def counting_push_block(self, block):
            ticks.append(len(block))
            return push_block(self, block)

        monkeypatch.setattr(PcapSource, "__iter__", no_iter)
        monkeypatch.setattr(StreamingQoEPipeline, "push_block", counting_push_block)
        pipeline = QoEPipeline.for_vca("teams")
        collector = CollectorSink()
        report = QoEMonitor(
            pipeline,
            PcapSource(teams_pcap),
            sinks=collector,
            config=pipeline.config.replace(demux_flows=False),
            batch_grid=True,
            block_size=block_size,
        ).run()
        assert report.n_packets == sum(ticks) == len(teams_call.trace)
        assert max(ticks) == min(block_size or DEFAULT_BLOCK_SIZE, len(teams_call.trace))
        assert collector.estimates == pipeline.estimate(teams_pcap)

    def test_batch_grid_requires_single_flow_config(self, teams_pcap):
        pipeline = QoEPipeline.for_vca("teams")
        with pytest.raises(ValueError, match="demux_flows"):
            QoEMonitor(pipeline, PcapSource(teams_pcap), batch_grid=True)

    def test_collect_batch_requires_single_flow(self, teams_call):
        with pytest.raises(RuntimeError, match="demux_flows"):
            StreamingQoEPipeline(QoEPipeline.for_vca("teams")).collect(
                teams_call.trace, batch=True
            )

    def test_monitor_is_one_shot_but_sources_are_reusable(self, teams_call):
        pipeline = QoEPipeline.for_vca("teams")
        source = TraceSource(teams_call.trace)
        first_sink = CollectorSink()
        monitor = QoEMonitor(pipeline, source, sinks=first_sink)
        first = monitor.run()
        # Sinks were closed by the run; a second run must refuse loudly
        # rather than crash mid-source or silently mix two runs' output.
        with pytest.raises(RuntimeError, match="already ran"):
            monitor.run()
        # The repeatable source feeds a fresh monitor identically.
        second_sink = CollectorSink()
        second = QoEMonitor(pipeline, source, sinks=second_sink).run()
        assert first == second
        assert first_sink.estimates == second_sink.estimates


class TestSources:
    def test_as_source_coercions(self, teams_call, teams_pcap):
        assert isinstance(as_source(teams_call.trace), TraceSource)
        assert isinstance(as_source(teams_pcap), PcapSource)
        assert isinstance(as_source(str(teams_pcap)), PcapSource)
        # Anything satisfying the PacketSource protocol passes through
        # unchanged -- wrappers, merges, custom sources, bare iterables.
        for source in (
            TraceSource(teams_call.trace),
            IteratorSource([]),
            MergedSource(teams_call.trace),
            iter([]),
        ):
            assert as_source(source) is source
        with pytest.raises(TypeError):
            as_source(42)

    def test_pcap_source_is_lazy_and_repeatable(self, teams_call, teams_pcap):
        source = PcapSource(teams_pcap)
        first = sum(1 for _ in source)
        second = sum(1 for _ in source)
        assert first == second == len(teams_call.trace)

    def test_pcap_source_truncated_tail(self, teams_call, tmp_path):
        path = tmp_path / "cut.pcap"
        teams_call.trace.to_pcap(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])  # cut mid-record
        # Strict by default: corrupt input must not be scored silently.
        with pytest.raises(ValueError, match="truncated"):
            list(PcapSource(path))
        # Opt-in tolerance for live/crashed captures.
        complete = sum(1 for _ in PcapSource(path, strict=False))
        assert complete == len(teams_call.trace) - 1

    def test_merged_source_orders_inter_source_skew(self):
        """Sources with badly offset clocks merge into one ordered stream."""
        late = [make_packet(100.0 + 0.1 * i, 1000) for i in range(20)]
        early = [make_packet(0.1 * i, 900, dst_port=40000) for i in range(20)]
        straddling = [make_packet(50.0 + 7.0 * i, 800, dst_port=41000) for i in range(10)]
        merged = list(MergedSource(iter(late), iter(early), iter(straddling)))
        timestamps = [p.timestamp for p in merged]
        assert timestamps == sorted(timestamps)
        assert len(merged) == 50

    def test_merged_source_tie_break_is_stable(self):
        a = [make_packet(1.0, 100), make_packet(2.0, 100)]
        b = [make_packet(1.0, 200, dst_port=40000), make_packet(2.0, 200, dst_port=40000)]
        merged = list(MergedSource(a, b))
        # Equal timestamps: the earlier-listed source wins deterministically.
        assert [p.payload_size for p in merged] == [100, 200, 100, 200]

    def test_merged_source_engine_equivalence(self, teams_call, lossy_teams_call):
        """Monitoring a MergedSource of two capture points matches per-flow batch."""
        pipeline = QoEPipeline.for_vca("teams")
        flow_a = teams_call.trace.without_ground_truth().without_rtp()
        flow_b = remap_flow(lossy_teams_call.trace.without_ground_truth().without_rtp())
        collector = CollectorSink()
        QoEMonitor(pipeline, MergedSource(flow_a, flow_b), sinks=collector).run()
        assert_estimates_equal(pipeline.estimate(flow_a), collector.for_flow(five_tuple(flow_a[0])))
        assert_estimates_equal(pipeline.estimate(flow_b), collector.for_flow(five_tuple(flow_b[0])))

    def test_merged_source_requires_sources(self):
        with pytest.raises(ValueError):
            MergedSource()


class TestSinks:
    def test_file_sinks_record_every_estimate(self, teams_call, tmp_path):
        pipeline = QoEPipeline.for_vca("teams")
        jsonl_path = tmp_path / "estimates.jsonl"
        csv_path = tmp_path / "estimates.csv"
        collector = CollectorSink()
        jsonl = JSONLinesSink(jsonl_path)
        csv_sink = CSVSink(csv_path)
        QoEMonitor(pipeline, TraceSource(teams_call.trace), sinks=[collector, jsonl, csv_sink]).run()

        lines = jsonl_path.read_text().splitlines()
        assert len(lines) == len(collector) == jsonl.records_written
        row = json.loads(lines[0])
        first = collector.items[0]
        assert row["window_start"] == first.estimate.window_start
        assert row["frame_rate"] == first.estimate.frame_rate
        assert row["src"] == first.flow.src and row["dst_port"] == first.flow.dst_port

        csv_lines = csv_path.read_text().splitlines()
        assert len(csv_lines) == len(collector) + 1  # header
        assert csv_lines[0].startswith("src,src_port,dst,dst_port,protocol,window_start")

    def test_jsonl_non_finite_metrics_round_trip_as_null(self, tmp_path):
        """NaN/inf metrics must serialize to valid JSON (null), not NaN literals.

        Estimates legitimately carry non-finite values (e.g. jitter over a
        single-frame window); bare ``json.dumps`` would write ``NaN`` --
        which ``json.loads`` in strict mode, jq, pandas and BigQuery all
        reject as invalid JSON.
        """
        import math

        from repro.core.pipeline import PipelineEstimate
        from repro.core.streaming import StreamEstimate
        from repro.net.flows import five_tuple

        path = tmp_path / "estimates.jsonl"
        sink = JSONLinesSink(path)
        sink.emit(
            StreamEstimate(
                flow=five_tuple(make_packet(0.0, 900)),
                estimate=PipelineEstimate(
                    window_start=0.0,
                    frame_rate=24.0,
                    bitrate_kbps=float("inf"),
                    frame_jitter_ms=float("nan"),
                    resolution=None,
                    source="heuristic",
                ),
            )
        )
        sink.close()
        (line,) = path.read_text().splitlines()
        row = json.loads(line, parse_constant=lambda c: pytest.fail(f"non-strict JSON: {c}"))
        assert row["frame_jitter_ms"] is None
        assert row["bitrate_kbps"] is None
        assert row["frame_rate"] == 24.0 and math.isfinite(row["frame_rate"])

    def test_file_sink_refuses_emit_after_close(self, tmp_path):
        sink = JSONLinesSink(tmp_path / "x.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(RuntimeError):
            sink.emit(None)

    def test_summary_sink_aggregates_per_flow(self, teams_call):
        pipeline = QoEPipeline.for_vca("teams")
        collector = CollectorSink()
        summary = SummarySink(degraded_fps_threshold=1e9)  # everything degraded
        QoEMonitor(pipeline, TraceSource(teams_call.trace), sinks=[collector, summary]).run()
        stats = summary.for_flow(collector.items[0].flow)
        assert stats.windows == len(collector)
        assert stats.degraded_windows == stats.windows
        assert stats.degraded_fraction == 1.0
        mean_fps = sum(e.frame_rate for e in collector.estimates) / len(collector)
        assert stats.mean_frame_rate == pytest.approx(mean_fps)
        assert stats.min_frame_rate == min(e.frame_rate for e in collector.estimates)
        with pytest.raises(KeyError):
            summary.for_flow(None)

    def test_metrics_snapshot_counters(self, teams_call):
        """The scrape surface's series names are public: pinned here."""
        pipeline = QoEPipeline.for_vca("teams")
        metrics = MetricsSnapshotSink()
        collector = CollectorSink()
        QoEMonitor(pipeline, TraceSource(teams_call.trace), sinks=[metrics, collector]).run()
        snapshot = metrics.metrics()
        counters, gauges = snapshot["counters"], snapshot["gauges"]
        assert counters["qoe_estimates_total"] == len(collector)
        assert gauges["qoe_flows_seen"] == 1
        assert counters['qoe_estimates_by_source_total{source="heuristic"}'] == len(collector)
        assert gauges["qoe_last_window_start_seconds"] == max(
            e.window_start for e in collector.estimates
        )

    def test_metrics_sink_registry_surface(self, teams_call):
        """The PR 8 surface: a registry-backed sink with a scrape renderer."""
        from repro import parse_prometheus
        from repro.obs.registry import MetricsRegistry

        pipeline = QoEPipeline.for_vca("teams")
        metrics = MetricsSnapshotSink(degraded_fps_threshold=1e9)  # everything degraded
        collector = CollectorSink()
        QoEMonitor(pipeline, TraceSource(teams_call.trace), sinks=[metrics, collector]).run()
        snapshot = metrics.metrics()
        assert snapshot["counters"]["qoe_estimates_total"] == len(collector)
        assert snapshot["counters"]["qoe_degraded_windows_total"] == len(collector)
        assert snapshot["gauges"]["qoe_flows_seen"] == 1
        series = parse_prometheus(metrics.render_prometheus())
        assert series["qoe_estimates_total"] == len(collector)
        assert series['qoe_estimates_by_source_total{source="heuristic"}'] == len(collector)
        # A caller-supplied registry is adopted, not replaced.
        shared = MetricsRegistry()
        assert MetricsSnapshotSink(registry=shared).registry is shared


class TestEvictionAndReadmission:
    def _mixed_feed(self):
        """A long-lived flow plus a short flow that dies early and resumes late."""
        long_lived = [make_packet(0.05 * i, 1000) for i in range(1200)]  # 0..60 s
        short = [make_packet(0.01 * i, 900, dst_port=40000) for i in range(300)]  # 0..3 s
        resumed = [make_packet(50.0 + 0.01 * i, 900, dst_port=40000) for i in range(300)]
        return sorted(long_lived + short + resumed, key=lambda p: p.timestamp)

    def test_evict_then_flush_never_double_emits(self):
        engine = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
        emitted = []
        for packet in self._mixed_feed():
            emitted.extend(engine.push(packet))
        emitted.extend(engine.evict_idle(idle_s=10.0))
        emitted.extend(engine.flush())
        per_flow: dict = {}
        for item in emitted:
            starts = per_flow.setdefault(item.flow, [])
            starts.append(item.estimate.window_start)
        for flow, starts in per_flow.items():
            assert len(starts) == len(set(starts)), f"{flow} emitted a window twice"

    def test_flush_after_evict_is_clean_for_surviving_flows(self):
        engine = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
        feed = self._mixed_feed()
        for packet in feed[: len(feed) // 2]:
            engine.push(packet)
        evicted_flows = {item.flow for item in engine.evict_idle(idle_s=5.0)}
        flushed = engine.flush()
        assert all(item.flow not in evicted_flows for item in flushed)
        assert engine.flush() == []  # idempotent

    def test_evicted_flow_readmitted_as_fresh_flow(self):
        engine = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
        emitted = []
        short = [make_packet(0.01 * i, 900, dst_port=40000) for i in range(300)]
        filler = [make_packet(0.05 * i, 1000) for i in range(400)]  # 0..20 s
        for packet in sorted(short + filler, key=lambda p: p.timestamp):
            emitted.extend(engine.push(packet))
        evicted = engine.evict_idle(idle_s=10.0)
        key = five_tuple(short[0])
        assert {item.flow for item in evicted} == {key}
        assert key not in engine._streams

        # The same 5-tuple resumes: it re-enters as a fresh flow and its new
        # windows are emitted again without interference from evicted state.
        resumed = [make_packet(30.0 + 0.01 * i, 900, dst_port=40000) for i in range(300)]
        late_filler = [make_packet(20.0 + 0.05 * i, 1000) for i in range(300)]
        for packet in sorted(resumed + late_filler, key=lambda p: p.timestamp):
            emitted.extend(engine.push(packet))
        assert key in engine._streams
        tail = engine.flush()
        resumed_windows = [
            item.estimate.window_start for item in emitted + tail if item.flow == key
        ]
        assert any(start >= 30.0 for start in resumed_windows)
        assert len(resumed_windows) == len(set(resumed_windows))

    def test_monitor_idle_timeout_evicts_automatically(self):
        pipeline = QoEPipeline.for_vca("teams")
        collector = CollectorSink()
        monitor = QoEMonitor(
            pipeline,
            IteratorSource(self._mixed_feed()),
            sinks=collector,
            config=pipeline.config.replace(idle_timeout_s=10.0),
        )
        report = monitor.run()
        assert report.n_evicted_flows >= 1
        assert report.n_flows == 2
        # Every estimate still reaches the sinks exactly once per window.
        per_flow: dict = {}
        for item in collector.items:
            per_flow.setdefault(item.flow, []).append(item.estimate.window_start)
        for starts in per_flow.values():
            assert len(starts) == len(set(starts))

    @pytest.mark.parametrize("block_size", [7, 64, 512])
    def test_block_path_idle_eviction_matches_per_packet(self, block_size):
        """Idle eviction under the block path: no loss, no duplicates.

        A flow that goes idle (evicted mid-run) and later resumes must
        produce exactly the per-packet monitor's estimates -- eviction
        sweeps land on block boundaries, but the resume happens long after
        either sweep, so the estimates themselves cannot differ.
        """
        pipeline = QoEPipeline.for_vca("teams")

        def run(block_size=None):
            collector = CollectorSink()
            report = QoEMonitor(
                pipeline,
                IteratorSource(self._mixed_feed()),
                sinks=collector,
                config=pipeline.config.replace(idle_timeout_s=10.0),
                block_size=block_size,
            ).run()
            return collector, report

        per_packet, packet_report = run()
        blocked, block_report = run(block_size=block_size)
        # Estimate-for-estimate equality per flow, in each flow's emission
        # order.  (The *global* interleaving may differ: eviction sweeps run
        # on block boundaries, so the evicted flow's flushed windows can land
        # a few positions later relative to other flows' estimates.)
        def per_flow(collector):
            grouped: dict = {}
            for item in collector.items:
                grouped.setdefault(item.flow, []).append(item.estimate)
            return grouped

        assert per_flow(blocked) == per_flow(per_packet)
        assert block_report.n_packets == packet_report.n_packets
        assert block_report.n_flows == packet_report.n_flows == 2
        assert block_report.n_evicted_flows >= 1
        # The short flow was evicted and resumed: both lives are in the
        # output, each window exactly once.
        short_flow = five_tuple(make_packet(0.0, 900, dst_port=40000))
        starts = [i.estimate.window_start for i in blocked.items if i.flow == short_flow]
        assert len(starts) == len(set(starts))
        assert any(start < 10.0 for start in starts)  # first life
        assert any(start >= 50.0 for start in starts)  # resumed life


class TestSinkContextManagers:
    """Every sink -- not just the file-backed ones -- works in a with block."""

    def test_all_sink_types_close_on_exit(self, tmp_path):
        from repro import EstimateSink

        closeable = [CollectorSink(), SummarySink(), MetricsSnapshotSink()]
        for sink in closeable:
            assert isinstance(sink, EstimateSink)
            with sink as entered:
                assert entered is sink
                assert not sink.closed
            assert sink.closed
        with JSONLinesSink(tmp_path / "x.jsonl") as jsonl:
            pass
        with pytest.raises(RuntimeError):
            jsonl.emit(None)  # closed on exit

    def test_with_block_scopes_a_monitor_run(self, teams_call):
        pipeline = QoEPipeline.for_vca("teams")
        with CollectorSink() as collector, SummarySink() as summary:
            QoEMonitor(pipeline, TraceSource(teams_call.trace), sinks=[collector, summary]).run()
            assert len(collector) > 0
        assert collector.closed and summary.closed

    def test_close_remains_idempotent_via_context_manager(self):
        sink = MetricsSnapshotSink()
        with sink:
            sink.close()
        assert sink.closed


class TestReportThroughputCounters:
    def test_report_exposes_packets_flows_and_wall_time(self, teams_call):
        pipeline = QoEPipeline.for_vca("teams")
        report = QoEMonitor(pipeline, TraceSource(teams_call.trace), sinks=CollectorSink()).run()
        assert report.packets_consumed == report.n_packets == len(teams_call.trace)
        assert report.flows_seen == report.n_flows == 1
        assert report.wall_time_s > 0.0
        assert report.packets_per_s == pytest.approx(
            report.packets_consumed / report.wall_time_s
        )

    def test_wall_time_does_not_break_report_equality(self, teams_call):
        """Two runs over the same capture compare equal (wall time excluded)."""
        pipeline = QoEPipeline.for_vca("teams")
        source = TraceSource(teams_call.trace)
        first = QoEMonitor(pipeline, source, sinks=CollectorSink()).run()
        second = QoEMonitor(pipeline, source, sinks=CollectorSink()).run()
        assert first == second
        assert first.wall_time_s != 0.0

    def test_batch_grid_run_populates_counters(self, teams_call, teams_pcap):
        from repro import ObsConfig

        pipeline = QoEPipeline.for_vca("teams")
        report = QoEMonitor(
            pipeline,
            PcapSource(teams_pcap),
            sinks=CollectorSink(),
            config=pipeline.config.replace(demux_flows=False),
            batch_grid=True,
            obs=ObsConfig(enabled=True),
        ).run()
        assert report.packets_consumed == len(teams_call.trace)
        assert report.wall_time_s > 0.0
        # The batch grid reports through the same tail as the streaming loop.
        timing = report.timing
        assert timing["setup_s"] + timing["stream_s"] + timing["drain_s"] == pytest.approx(
            report.wall_time_s
        )
        counters = report.metrics["counters"]
        assert counters["qoe_monitor_packets_total"] == report.n_packets
        assert counters["qoe_monitor_estimates_total"] == report.n_estimates
        # The batch grid runs push_block, so the engine records its ticks.
        assert counters["qoe_engine_ticks_total"] >= 1
        assert counters["qoe_engine_packets_total"] == report.n_packets
        assert 'qoe_stage_seconds{stage="push_block"}' in report.metrics["histograms"]


class TestObservability:
    """The single-process monitor's telemetry plane (PR 8)."""

    @pytest.mark.parametrize("trained", [False, True])
    @pytest.mark.parametrize("block_size", [None, 256])
    def test_estimates_bit_identical_with_obs_on(
        self, teams_call, teams_calls_small, block_size, trained
    ):
        from repro import ObsConfig

        pipeline = QoEPipeline.for_vca("teams")
        if trained:
            pipeline.train(teams_calls_small)
        source = TraceSource(teams_call.trace)

        def run(obs=None):
            sink = CollectorSink()
            report = QoEMonitor(
                pipeline, source, sinks=sink, block_size=block_size, obs=obs
            ).run()
            return sink, report

        plain, plain_report = run()
        observed, report = run(ObsConfig(enabled=True))
        assert [(i.flow, i.estimate) for i in observed.items] == [
            (i.flow, i.estimate) for i in plain.items
        ]
        assert report == plain_report  # metrics/timing are compare-excluded
        assert plain_report.metrics == {}
        assert report.metrics["counters"]["qoe_monitor_packets_total"] == report.n_packets
        assert report.metrics["counters"]["qoe_monitor_estimates_total"] == report.n_estimates
        assert report.metrics["gauges"]["qoe_monitor_flows_seen"] == report.n_flows

    def test_timing_breakdown_and_stream_throughput(self, teams_call):
        report = QoEMonitor(
            QoEPipeline.for_vca("teams"), TraceSource(teams_call.trace), sinks=CollectorSink()
        ).run()
        timing = report.timing
        assert set(timing) == {"wall_time_s", "setup_s", "stream_s", "drain_s"}
        assert timing["wall_time_s"] == report.wall_time_s
        assert timing["setup_s"] + timing["stream_s"] + timing["drain_s"] == pytest.approx(
            timing["wall_time_s"]
        )
        # First source read to sinks closed: setup alone is excluded.
        assert report.stream_packets_per_s == report.n_packets / (
            timing["stream_s"] + timing["drain_s"]
        )
        assert report.stream_packets_per_s >= report.packets_per_s

    def test_block_mode_records_engine_spans(self, teams_call):
        from repro import ObsConfig, parse_prometheus, render_prometheus

        monitor = QoEMonitor(
            QoEPipeline.for_vca("teams"),
            TraceSource(teams_call.trace),
            sinks=CollectorSink(),
            block_size=256,
            obs=ObsConfig(enabled=True),
        )
        report = monitor.run()
        stages = {
            series.split('stage="')[1].rstrip('"}')
            for series in report.metrics["histograms"]
            if series.startswith("qoe_stage_seconds")
        }
        assert {"source_read", "push_block", "sink_emit"} <= stages
        # The engine's tick counters agree with the loop totals, and the
        # whole snapshot survives a scrape round-trip.
        assert report.metrics["counters"]["qoe_engine_packets_total"] == report.n_packets
        assert monitor.metrics() == report.metrics
        series = parse_prometheus(render_prometheus(report.metrics))
        assert series["qoe_monitor_packets_total"] == report.n_packets

    def test_per_packet_mode_keeps_the_engine_uninstrumented(self, teams_call):
        from repro import ObsConfig

        monitor = QoEMonitor(
            QoEPipeline.for_vca("teams"),
            TraceSource(teams_call.trace),
            sinks=CollectorSink(),
            obs=ObsConfig(enabled=True),
        )
        report = monitor.run()
        # No per-packet spans or tick counters -- that overhead is exactly
        # what the per-packet loop avoids; the monitor totals sync once.
        assert monitor.engine.obs is None
        assert "qoe_engine_packets_total" not in report.metrics["counters"]
        assert report.metrics["histograms"] == {}
        assert report.metrics["counters"]["qoe_monitor_packets_total"] == report.n_packets
