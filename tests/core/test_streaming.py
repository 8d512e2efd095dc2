"""Streaming engine tests: batch equivalence, demux, reordering, memory bound.

The acceptance contract of the streaming refactor is that
:class:`~repro.core.streaming.StreamingQoEPipeline` emits exactly the same
:class:`~repro.core.pipeline.PipelineEstimate` rows as the batch
:meth:`QoEPipeline.estimate` -- per flow, in one pass, with per-flow state
only -- including on interleaved multi-session traffic and packets reordered
within the assembler lookback.
"""

import heapq
from dataclasses import replace

import numpy as np
import pytest

from repro.core.pipeline import QoEPipeline
from repro.core.streaming import StreamingQoEPipeline, window_index
from repro.net.block import PacketBlock
from repro.net.flows import five_tuple
from repro.net.packet import IPv4Header, Packet, UDPHeader
from repro.net.trace import PacketTrace


def assert_estimates_equal(batch, streamed, check_resolution=True):
    """Row-by-row comparison of PipelineEstimate sequences (float tolerance)."""
    assert len(streamed) >= len(batch)
    # The stream also closes the window that starts exactly at end_time; the
    # batch contract stops one earlier.  Anything beyond that is a bug.
    assert len(streamed) <= len(batch) + 1
    for expected, actual in zip(batch, streamed):
        assert actual.window_start == pytest.approx(expected.window_start, abs=1e-12)
        assert actual.frame_rate == pytest.approx(expected.frame_rate, abs=1e-9)
        assert actual.bitrate_kbps == pytest.approx(expected.bitrate_kbps, abs=1e-9)
        assert actual.frame_jitter_ms == pytest.approx(expected.frame_jitter_ms, abs=1e-9)
        assert actual.source == expected.source
        if check_resolution:
            assert actual.resolution == expected.resolution


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


class TestSingleFlowEquivalence:
    def test_untrained_heuristic_parity(self, teams_call):
        pipeline = QoEPipeline.for_vca("teams")
        batch = pipeline.estimate(teams_call.trace)
        stream = StreamingQoEPipeline(pipeline, demux_flows=False)
        streamed = [e.estimate for e in stream.collect(teams_call.trace)]
        assert batch
        assert_estimates_equal(batch, streamed)

    def test_untrained_parity_under_loss_and_jitter(self, lossy_teams_call):
        pipeline = QoEPipeline.for_vca("teams")
        batch = pipeline.estimate(lossy_teams_call.trace)
        stream = StreamingQoEPipeline(pipeline, demux_flows=False)
        streamed = [e.estimate for e in stream.collect(lossy_teams_call.trace)]
        assert_estimates_equal(batch, streamed)

    def test_trained_ml_parity(self, teams_calls_small):
        pipeline = QoEPipeline.for_vca("teams").train(teams_calls_small)
        call = teams_calls_small[0]
        batch = pipeline.estimate(call.trace)
        assert all(e.source == "ml" for e in batch)
        stream = StreamingQoEPipeline(pipeline, demux_flows=False)
        streamed = [e.estimate for e in stream.collect(call.trace)]
        assert_estimates_equal(batch, streamed)

    def test_batch_adapter_is_the_streaming_engine(self, teams_call):
        """estimate() must go through the stream: same count, ordered windows."""
        pipeline = QoEPipeline.for_vca("teams")
        estimates = pipeline.estimate(teams_call.trace)
        starts = [e.window_start for e in estimates]
        assert starts == sorted(starts)
        assert starts == [float(k) for k in range(len(starts))]


class TestMultiFlowEquivalence:
    def test_interleaved_two_session_trace(self, teams_call, lossy_teams_call):
        pipeline = QoEPipeline.for_vca("teams")
        flow_a_trace = teams_call.trace.without_ground_truth().without_rtp()
        flow_b_trace = remap_flow(lossy_teams_call.trace.without_ground_truth().without_rtp())
        merged = heapq.merge(flow_a_trace, flow_b_trace, key=lambda p: p.timestamp)

        stream = StreamingQoEPipeline(pipeline)
        emitted = stream.collect(merged)
        assert len(stream.flows) == 2

        by_flow: dict = {}
        for item in emitted:
            by_flow.setdefault(item.flow, []).append(item.estimate)

        key_a = five_tuple(flow_a_trace[0])
        key_b = five_tuple(flow_b_trace[0])
        assert set(by_flow) == {key_a, key_b}
        assert_estimates_equal(pipeline.estimate(flow_a_trace), by_flow[key_a])
        assert_estimates_equal(pipeline.estimate(flow_b_trace), by_flow[key_b])

    def test_interleaved_trained_sessions(self, teams_calls_small):
        pipeline = QoEPipeline.for_vca("teams").train(teams_calls_small)
        flow_a_trace = teams_calls_small[0].trace.without_ground_truth().without_rtp()
        flow_b_trace = remap_flow(teams_calls_small[1].trace.without_ground_truth().without_rtp())
        merged = heapq.merge(flow_a_trace, flow_b_trace, key=lambda p: p.timestamp)

        stream = StreamingQoEPipeline(pipeline)
        by_flow: dict = {}
        for item in stream.process(merged):
            by_flow.setdefault(item.flow, []).append(item.estimate)
        for item in stream.flush():
            by_flow.setdefault(item.flow, []).append(item.estimate)

        assert_estimates_equal(pipeline.estimate(flow_a_trace), by_flow[five_tuple(flow_a_trace[0])])
        assert_estimates_equal(pipeline.estimate(flow_b_trace), by_flow[five_tuple(flow_b_trace[0])])


class TestOutOfOrderPackets:
    @pytest.mark.parametrize("seed", range(4))
    def test_adjacent_swaps_within_lookback(self, teams_call, seed):
        """Packets displaced by one position are absorbed by the reorder buffer."""
        pipeline = QoEPipeline.for_vca("teams")
        ordered = teams_call.trace.packets
        rng = np.random.default_rng(seed)
        shuffled = list(ordered)
        i = 0
        while i + 1 < len(shuffled):
            if rng.random() < 0.3:
                shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
                i += 2
            else:
                i += 1
        batch = pipeline.estimate(teams_call.trace)
        stream = StreamingQoEPipeline(pipeline, demux_flows=False)
        streamed = [e.estimate for e in stream.collect(iter(shuffled))]
        assert_estimates_equal(batch, streamed)

    def test_deeper_reorder_buffer(self, teams_call):
        """With an explicit reorder_depth, larger displacements are absorbed."""
        pipeline = QoEPipeline.for_vca("teams")
        ordered = teams_call.trace.packets
        rng = np.random.default_rng(7)
        shuffled = list(ordered)
        for i in range(0, len(shuffled) - 4, 4):
            block = shuffled[i : i + 4]
            rng.shuffle(block)
            shuffled[i : i + 4] = block
        batch = pipeline.estimate(teams_call.trace)
        stream = StreamingQoEPipeline(pipeline, demux_flows=False, reorder_depth=4)
        streamed = [e.estimate for e in stream.collect(iter(shuffled))]
        assert_estimates_equal(batch, streamed)


class TestBoundedMemory:
    def test_single_pass_over_a_pure_iterator(self, teams_call):
        """The engine must work on a generator: no rewind, no full-trace view."""
        pipeline = QoEPipeline.for_vca("teams")
        feed = (p for p in teams_call.trace)  # exhaustible, one pass only
        stream = StreamingQoEPipeline(pipeline, demux_flows=False)
        streamed = [e.estimate for e in stream.collect(feed)]
        assert_estimates_equal(pipeline.estimate(teams_call.trace), streamed)

    def test_per_flow_state_stays_bounded_during_processing(self, teams_call, lossy_teams_call):
        pipeline = QoEPipeline.for_vca("teams")
        flow_a = teams_call.trace.without_ground_truth().without_rtp()
        flow_b = remap_flow(lossy_teams_call.trace.without_ground_truth().without_rtp())
        merged = list(heapq.merge(flow_a, flow_b, key=lambda p: p.timestamp))

        stream = StreamingQoEPipeline(pipeline)
        max_buffered = 0
        max_open = 0
        for i, packet in enumerate(merged):
            stream.push(packet)
            if i % 100 == 0:
                max_buffered = max(max_buffered, stream.buffered_packets)
                max_open = max(max_open, stream.open_windows)
        stream.flush()

        n_flows = len(stream.flows)
        assert n_flows == 2
        # Reorder buffers hold at most reorder_depth packets per flow; the
        # open-window count never scales with trace length.
        assert max_buffered <= stream.reorder_depth * n_flows
        assert max_open <= 3 * n_flows
        assert stream.buffered_packets == 0 and stream.open_windows == 0

    def test_flow_table_does_not_retain_packets(self, teams_call):
        pipeline = QoEPipeline.for_vca("teams")
        stream = StreamingQoEPipeline(pipeline)
        stream.collect(teams_call.trace)
        assert not stream.flow_table.store_packets
        with pytest.raises(RuntimeError):
            stream.flow_table.packets(stream.flows[0])
        # Aggregate statistics are still tracked per flow.
        stats = stream.flow_table.stats(stream.flows[0])
        assert stats.packets == len(teams_call.trace)


class TestWindowIndex:
    def test_consistent_with_boundary_arithmetic(self):
        for window_s in (0.1, 0.2, 0.3, 1.0, 2.5):
            for k in range(0, 2000, 37):
                boundary = 0.0 + k * window_s
                assert window_index(boundary, 0.0, window_s) == k
                inside = boundary + window_s * 0.5
                assert window_index(inside, 0.0, window_s) == k

    def test_nonzero_start(self):
        assert window_index(2.0, 2.0, 1.0) == 0
        assert window_index(4.999, 2.0, 1.0) == 2
        assert window_index(5.0, 2.0, 1.0) == 3


def make_packet(timestamp, size, dst_port=51000):
    return Packet(
        timestamp=timestamp,
        ip=IPv4Header(src="192.0.2.10", dst="10.0.0.1"),
        udp=UDPHeader(src_port=3478, dst_port=dst_port),
        payload_size=size,
    )


class TestLiveness:
    def test_video_outage_windows_emitted_with_frame_age_bound(self):
        """Audio-only stretches must not stall estimate emission.

        Algorithm 1's lookback counts packets, so after a total video stall
        the last frame stays open forever; with max_frame_age_s the monitor
        keeps closing (degraded) windows while only audio flows.
        """
        packets = [make_packet(0.01 * i, 1000) for i in range(300)]      # 3 s video
        packets += [make_packet(3.0 + 0.02 * i, 120) for i in range(1500)]  # 30 s audio only
        pipeline = QoEPipeline.for_vca("teams")

        bounded = StreamingQoEPipeline(pipeline, demux_flows=False, max_frame_age_s=2.0)
        live_starts = [e.estimate.window_start for p in packets for e in bounded.push(p)]
        # Windows deep inside the outage are emitted live, without a flush.
        assert live_starts and max(live_starts) >= 25.0
        outage = [s for s in live_starts if s >= 5.0]
        assert len(outage) >= 20

        # Default (strict batch parity) holds those windows until flush.
        strict = StreamingQoEPipeline(pipeline, demux_flows=False)
        strict_live = [e for p in packets for e in strict.push(p)]
        assert max(e.estimate.window_start for e in strict_live) < 4.0
        flushed = strict.flush()
        assert len(strict_live) + len(flushed) >= 32

    def test_frame_age_bound_preserves_healthy_stream_estimates(self, teams_call):
        """On a healthy call the bound never fires: estimates match batch."""
        pipeline = QoEPipeline.for_vca("teams")
        batch = pipeline.estimate(teams_call.trace)
        stream = StreamingQoEPipeline(pipeline, demux_flows=False, max_frame_age_s=2.0)
        streamed = [e.estimate for e in stream.collect(teams_call.trace)]
        assert_estimates_equal(batch, streamed)


class TestExcessiveReordering:
    def test_late_packet_beyond_depth_is_dropped_not_corrupting(self):
        """A packet for an already-emitted window must not wipe open state."""
        packets = [make_packet(t, 1000) for t in (0.1, 0.2, 0.3, 1.1, 1.2, 1.3, 1.4)]
        late = make_packet(0.05, 1000)
        stream = StreamingQoEPipeline(QoEPipeline.for_vca("teams"), demux_flows=False, reorder_depth=0)
        emitted = []
        for p in packets:
            emitted.extend(stream.push(p))
        emitted.extend(stream.push(late))  # window 0 already closed
        emitted.extend(stream.flush())
        starts = [e.estimate.window_start for e in emitted]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts), "no window emitted twice"

    def test_trained_mode_late_packet_does_not_wipe_current_window(self, teams_calls_small):
        pipeline = QoEPipeline.for_vca("teams").train(teams_calls_small)
        call = teams_calls_small[0]
        ordered = call.trace.packets
        # Inject one pathologically late duplicate of an early packet.
        from dataclasses import replace as _replace
        late = _replace(ordered[5])
        feed = ordered[:1000] + [late] + ordered[1000:]
        batch = pipeline.estimate(call.trace)
        stream = StreamingQoEPipeline(pipeline, demux_flows=False)
        streamed = [e.estimate for e in stream.collect(iter(feed))]
        # The late packet is dropped; estimates still match the clean batch.
        assert_estimates_equal(batch, streamed)

    def test_out_of_order_within_window_beyond_depth_is_dropped(self):
        """A packet released behind the stream must be dropped, not fed to the
        order-sensitive accumulators (negative IATs) or the assembler."""
        packets = [make_packet(t, 1000) for t in (0.5, 0.51, 0.4, 1.5, 1.51)]
        stream = StreamingQoEPipeline(QoEPipeline.for_vca("teams"), demux_flows=False, reorder_depth=0)
        emitted = []
        for p in packets:
            emitted.extend(stream.push(p))
        emitted.extend(stream.flush())
        # Equivalent batch input without the undeliverable packet.
        clean = PacketTrace([p for p in packets if p.timestamp != 0.4])
        batch = QoEPipeline.for_vca("teams").estimate(clean)
        assert_estimates_equal(batch, [e.estimate for e in emitted])


class TestLongRunningMonitor:
    def test_late_starting_flow_does_not_backfill_the_grid(self):
        """A flow first seen late on the grid (mid-capture join, epoch-like
        timestamps) must not emit one empty window per elapsed second."""
        base = 1_000_000.0
        packets = [make_packet(base + 0.01 * i, 1000) for i in range(200)]
        stream = StreamingQoEPipeline(QoEPipeline.for_vca("teams"), demux_flows=False)
        emitted = [e for p in packets for e in stream.push(p)]
        emitted.extend(stream.flush())
        assert 1 <= len(emitted) <= 4, "only the windows the flow actually spans"
        assert emitted[0].estimate.window_start == base

    def test_batch_adapter_still_backfills_from_zero(self, teams_call):
        """QoEPipeline.estimate keeps the seed contract: windows from t=0."""
        shifted = teams_call.trace.shifted(5.0)
        estimates = QoEPipeline.for_vca("teams").estimate(shifted)
        assert estimates[0].window_start == 0.0
        assert estimates[0].frame_rate == 0.0  # leading empty windows included

    def test_flushed_engine_refuses_new_packets(self):
        stream = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
        stream.push(make_packet(0.1, 1000))
        assert stream.flush() is not None
        assert stream.flush() == []  # idempotent
        with pytest.raises(RuntimeError):
            stream.push(make_packet(5.0, 1000))

    def test_evict_idle_flows_bounds_flow_state(self, teams_call):
        pipeline = QoEPipeline.for_vca("teams")
        flow_a = teams_call.trace.without_ground_truth().without_rtp()
        short_b = remap_flow(PacketTrace(list(flow_a)[:50]))  # dies early
        merged = sorted(list(flow_a) + list(short_b), key=lambda p: p.timestamp)

        stream = StreamingQoEPipeline(pipeline)
        emitted = []
        for packet in merged:
            emitted.extend(stream.push(packet))
        assert len(stream._streams) == 2
        evicted = stream.evict_idle(idle_s=5.0)
        assert len(stream._streams) == 1, "the long-dead flow is gone"
        assert all(e.flow == five_tuple(short_b[0]) for e in evicted)
        emitted.extend(stream.flush())
        # The surviving flow still matches batch.
        survivors = [e.estimate for e in emitted + evicted if e.flow == five_tuple(flow_a[0])]
        assert_estimates_equal(pipeline.estimate(flow_a), survivors)

    def test_evict_idle_covers_flows_still_in_reorder_buffer(self):
        """A 1-packet flow (everything buffered, watermark unset) must still be
        evictable, or flows-ever-seen leak on a perpetual monitor."""
        stream = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
        stream.push(make_packet(0.1, 1000, dst_port=40000))  # tiny, dies instantly
        for i in range(500):
            stream.push(make_packet(0.05 * i, 1000))         # long-lived flow
        assert len(stream._streams) == 2
        evicted = stream.evict_idle(idle_s=5.0)
        assert len(stream._streams) == 1
        assert len(stream.flow_table) == 1
        assert all(e.flow.dst_port == 40000 for e in evicted)

    def test_mass_eviction_sweep_is_one_pass(self):
        """A single sweep evicting many flows must not be O(evicted x flows).

        Regression for the per-eviction ``_flow_order.remove`` -- quadratic
        in the flow count, which stalled the hot path when a large monitor
        mass-evicted (20k single-packet flows made the sweep take tens of
        seconds; one pass takes well under a second even on slow CI).
        """
        from time import perf_counter

        stream = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
        n_flows = 20_000
        for i in range(n_flows):
            stream.push(
                Packet(
                    timestamp=0.0,
                    ip=IPv4Header(src="192.0.2.10", dst=f"10.{i >> 16}.{(i >> 8) & 255}.{i & 255}"),
                    udp=UDPHeader(src_port=3478, dst_port=40000),
                    payload_size=1000,
                )
            )
        stream.push(make_packet(1000.0, 1000))  # the lone live flow drives time
        assert len(stream._streams) == n_flows + 1
        started = perf_counter()
        evicted = stream.evict_idle(idle_s=10.0)
        elapsed = perf_counter() - started
        assert len(stream._streams) == 1 and len(stream.flow_table) == 1
        assert len({e.flow for e in evicted}) == n_flows
        assert stream.flows == [five_tuple(make_packet(1000.0, 1000))]
        assert elapsed < 3.0, f"mass-eviction sweep took {elapsed:.2f}s (quadratic regression?)"


class TestLowWatermark:
    def test_no_packets_means_no_watermark(self):
        engine = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
        assert engine.low_watermark() is None

    def test_bound_tracks_slowest_flow(self):
        engine = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
        for i in range(400):
            engine.push(make_packet(0.05 * i, 1000))            # advances to 20 s
        for i in range(5):
            engine.push(make_packet(1.0 + 0.01 * i, 900, dst_port=40000))  # stuck ~1 s
        watermark = engine.low_watermark()
        assert watermark is not None
        assert watermark <= 2.0, "the lagging flow holds the bound down"

    def test_new_flow_slack_lowers_the_bound(self):
        engine = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
        for i in range(400):
            engine.push(make_packet(0.05 * i, 1000))
        unslacked = engine.low_watermark()
        slacked = engine.low_watermark(new_flow_slack_s=10.0)
        assert slacked is not None and unslacked is not None
        assert slacked <= unslacked - 9.0  # room for a late-joining flow

    def test_watermark_accounts_for_backfill_limit(self):
        """A new flow back-fills up to backfill_limit windows behind its first
        packet; the bound must cover them or the fan-in releases too early."""
        pipeline = QoEPipeline.for_vca("teams")
        engine = StreamingQoEPipeline(pipeline, config=pipeline.config.replace(backfill_limit=5))
        for i in range(400):
            engine.push(make_packet(0.05 * i, 1000))  # advances to ~20 s
        watermark = engine.low_watermark(new_flow_slack_s=1.0)
        assert watermark is not None
        # A flow joining at 19.0 (within slack) may emit from window 14.0.
        late = [make_packet(19.0 + 0.01 * i, 900, dst_port=40000) for i in range(300)]
        emitted = [e for p in late for e in engine.push(p)]
        emitted.extend(engine.flush())
        late_starts = [e.estimate.window_start for e in emitted if e.flow.dst_port == 40000]
        assert min(late_starts) >= watermark, (
            f"emitted window {min(late_starts)} below reported watermark {watermark}"
        )

    def test_watermark_unbounded_backfill_pins_to_grid_origin(self):
        pipeline = QoEPipeline.for_vca("teams")
        engine = StreamingQoEPipeline(pipeline, config=pipeline.config.replace(backfill_limit=None))
        for i in range(400):
            engine.push(make_packet(0.05 * i, 1000))
        # With unlimited backfill a new flow may emit from start: no live-flow
        # progress can raise the new-flow bound above it.
        assert engine.low_watermark(new_flow_slack_s=1.0) == engine.start

    def test_watermark_is_honoured_by_future_emissions(self):
        engine = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
        feed = sorted(
            [make_packet(0.011 * i, 1100) for i in range(800)]
            + [make_packet(0.013 * i, 900, dst_port=40000) for i in range(600)],
            key=lambda p: p.timestamp,
        )
        for i in range(0, len(feed), 50):
            watermark = engine.low_watermark(new_flow_slack_s=2.0)
            emitted = engine.push_block(PacketBlock.from_packets(feed[i : i + 50]))
            if watermark is not None:
                for item in emitted:
                    assert item.estimate.window_start >= watermark
