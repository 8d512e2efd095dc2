"""Equivalence pins for the columnar engine path.

The block-path contract: feeding a capture through
``StreamingQoEPipeline.push_block`` -- any chunking, with or without the
in-process packet cache -- emits **exactly** what per-packet ``push`` emits:
same windows, bit-identical values, same emission order.  Pinned here for
the heuristic and trained estimators, demux and single-flow modes, sorted
and locally-disordered input, and through the QoEMonitor block driver.
"""

from __future__ import annotations

import importlib.util
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import CollectorSink, IteratorSource, QoEMonitor, QoEPipeline, TraceSource
from repro.core.streaming import StreamingQoEPipeline, _FlowStream, window_index, window_indices
from repro.net.block import PacketBlock, blocks_from_packets
from repro.net.packet import IPv4Header, Packet, UDPHeader
from repro.net.trace import PacketTrace

# The synthetic-flow / trained-pipeline helpers live in the cluster suite's
# conftest; load it under a private name (plain ``import conftest`` would
# collide with the root tests/conftest.py).
_spec = importlib.util.spec_from_file_location(
    "_cluster_conftest", Path(__file__).resolve().parents[1] / "cluster" / "conftest.py"
)
_cluster_conftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_cluster_conftest)
interleave = _cluster_conftest.interleave
make_trained_pipeline = _cluster_conftest.make_trained_pipeline
synthetic_flow = _cluster_conftest.synthetic_flow


@pytest.fixture(scope="module")
def vantage_packets():
    return interleave(
        *(synthetic_flow(seed, f"10.0.0.{seed + 1}", 50000 + seed) for seed in range(4))
    )


@pytest.fixture(scope="module")
def trained_pipeline():
    return make_trained_pipeline()


def per_packet_run(pipeline, packets, config=None):
    engine = StreamingQoEPipeline(pipeline, config=config)
    emitted = [item for packet in packets for item in engine.push(packet)]
    emitted.extend(engine.flush())
    return emitted


def block_run(pipeline, packets, chunk_size, wire=False, config=None):
    engine = StreamingQoEPipeline(pipeline, config=config)
    emitted = []
    for block in blocks_from_packets(packets, chunk_size):
        if wire:
            block = pickle.loads(pickle.dumps(block))
        emitted.extend(engine.push_block(block))
    emitted.extend(engine.flush())
    return emitted


class TestOneFeaturePassPerTick:
    """Trained ``push_block`` computes the features of every window that closed
    in a tick -- across all flows -- in one array pass, then predicts them in
    one walk of the stacked forests."""

    def test_each_tick_is_one_feature_pass(self, vantage_packets, trained_pipeline, monkeypatch):
        import repro.core.streaming as streaming

        passes: list[int] = []
        real = streaming.window_features

        def spy(timestamps, sizes, lengths, window_s):
            passes.append(len(lengths))
            return real(timestamps, sizes, lengths, window_s)

        monkeypatch.setattr(streaming, "window_features", spy)
        engine = StreamingQoEPipeline(trained_pipeline)
        emitted = []
        for block in blocks_from_packets(vantage_packets, 512):
            before = len(passes)
            out = engine.push_block(block)
            assert len(passes) - before == (1 if out else 0)
            assert sum(passes[before:]) == len(out)
            emitted.extend(out)
        assert max(passes) > 1 and len({item.flow for item in emitted}) == 4
        monkeypatch.setattr(streaming, "window_features", real)
        assert emitted + engine.flush() == per_packet_run(trained_pipeline, vantage_packets)

    def test_feature_pass_has_its_own_stage_span(self, vantage_packets, trained_pipeline):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        engine = StreamingQoEPipeline(trained_pipeline, obs=registry)
        for block in blocks_from_packets(vantage_packets, 512):
            engine.push_block(block)
        assert registry.stage_count("features") == registry.stage_count("predict") >= 1


class TestWindowIndices:
    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        timestamps = np.sort(rng.uniform(0.0, 50.0, size=4000))
        timestamps = np.concatenate((timestamps, np.arange(0.0, 50.0, 0.5)))  # exact boundaries
        for start, window_s in ((0.0, 1.0), (0.25, 0.3), (-3.0, 0.7)):
            expected = [window_index(float(t), start, window_s) for t in timestamps]
            np.testing.assert_array_equal(
                window_indices(timestamps, start, window_s), expected
            )


class TestPushBlockEquivalence:
    @pytest.mark.parametrize("chunk_size", [1, 7, 256, 100_000])
    def test_heuristic_bit_identical_any_chunking(self, vantage_packets, chunk_size):
        pipeline = QoEPipeline.for_vca("teams")
        assert block_run(pipeline, vantage_packets, chunk_size) == per_packet_run(
            pipeline, vantage_packets
        )

    @pytest.mark.parametrize("chunk_size", [1, 7, 256, 100_000])
    def test_trained_bit_identical_any_chunking(self, vantage_packets, trained_pipeline, chunk_size):
        expected = per_packet_run(trained_pipeline, vantage_packets)
        assert all(item.estimate.source == "ml" for item in expected)
        assert block_run(trained_pipeline, vantage_packets, chunk_size) == expected

    def test_wire_blocks_without_packet_cache(self, vantage_packets, trained_pipeline):
        for pipeline in (QoEPipeline.for_vca("teams"), trained_pipeline):
            assert block_run(pipeline, vantage_packets, 256, wire=True) == per_packet_run(
                pipeline, vantage_packets
            )

    def test_concatenated_blocks_with_different_side_tables(self, vantage_packets, trained_pipeline):
        """A shard worker's slot-sized tick: sub-blocks that each intern their
        own address and flow tables (same code, different flow; one table a
        flow longer than the next) pushed as one ``PacketBlock.concat``."""
        packets = interleave(
            vantage_packets, synthetic_flow(7, "10.0.0.8", 50007, duration_s=3.0, start_s=3.0)
        )
        blocks = [
            pickle.loads(pickle.dumps(PacketBlock.from_packets(packets[i : i + 48])))
            for i in range(0, len(packets), 48)
        ]
        assert len({block.flows for block in blocks}) > 4
        assert len({block.addresses for block in blocks}) > 4
        assert len({len(block.flows) for block in blocks}) > 1
        for pipeline in (QoEPipeline.for_vca("teams"), trained_pipeline):
            one_by_one = StreamingQoEPipeline(pipeline)
            together = StreamingQoEPipeline(pipeline)
            expected = [item for block in blocks for item in one_by_one.push_block(block)]
            emitted = [
                item
                for i in range(0, len(blocks), 5)
                for item in together.push_block(PacketBlock.concat(blocks[i : i + 5]))
            ]
            assert emitted == expected
            assert together.flush() == one_by_one.flush()
            assert len(expected) > 20

    def test_locally_disordered_input_falls_back_identically(self, trained_pipeline):
        packets = synthetic_flow(9, "10.0.0.9", 50009, duration_s=6.0)
        disordered = list(packets)
        for i in range(0, len(disordered) - 1, 5):
            disordered[i], disordered[i + 1] = disordered[i + 1], disordered[i]
        for pipeline in (QoEPipeline.for_vca("teams"), trained_pipeline):
            assert block_run(pipeline, disordered, 64) == per_packet_run(pipeline, disordered)

    def test_backdated_block_with_zero_reorder_depth(self, trained_pipeline):
        """A later block that backdates the watermark must drop, not rewind.

        With reorder_depth=0 the pending buffer is always empty, so the
        sorted fast path cannot rely on it to detect backdating -- the
        watermark guard has to (regression test: the stale run used to be
        accounted, rewinding the open window).
        """
        import numpy as np

        from repro.net.block import PacketBlock
        from repro.net.packet import IPv4Header, Packet, UDPHeader

        ip = IPv4Header(src="192.0.2.10", dst="10.0.0.1")
        udp = UDPHeader(src_port=3478, dst_port=50000)

        def pkt(ts):
            return Packet(timestamp=ts, ip=ip, udp=udp, payload_size=900)

        feed = [[pkt(10.0), pkt(10.1)], [pkt(5.0), pkt(5.1), pkt(6.0)], [pkt(11.0)]]
        for pipeline in (QoEPipeline.for_vca("teams"), trained_pipeline):
            reference = per_packet_run(pipeline, [p for chunk in feed for p in chunk],
                                       config=pipeline.config.replace(reorder_depth=0))
            engine = StreamingQoEPipeline(pipeline, config=pipeline.config.replace(reorder_depth=0))
            emitted = []
            for chunk in feed:
                emitted.extend(engine.push_block(PacketBlock.from_packets(chunk)))
            emitted.extend(engine.flush())
            assert emitted == reference
            assert np.all([e.estimate.window_start >= 10.0 for e in emitted])

    def test_single_flow_mode(self, trained_pipeline):
        packets = synthetic_flow(2, "10.0.0.2", 50002, duration_s=6.0)
        for pipeline in (QoEPipeline.for_vca("teams"), trained_pipeline):
            single_flow = pipeline.config.replace(demux_flows=False)
            assert block_run(pipeline, packets, 128, config=single_flow) == per_packet_run(
                pipeline, packets, config=single_flow
            )

    def test_mixing_push_and_push_block(self, vantage_packets, trained_pipeline):
        """A stream fed alternately by blocks and single packets stays exact."""
        for pipeline in (QoEPipeline.for_vca("teams"), trained_pipeline):
            engine = StreamingQoEPipeline(pipeline)
            emitted = []
            cursor = 0
            for block in blocks_from_packets(vantage_packets[: len(vantage_packets) // 2], 200):
                emitted.extend(engine.push_block(block))
                cursor += len(block)
            for packet in vantage_packets[cursor:]:
                emitted.extend(engine.push(packet))
            emitted.extend(engine.flush())
            assert emitted == per_packet_run(pipeline, vantage_packets)

    def test_heuristic_block_path_constructs_zero_packet_objects(self, vantage_packets, monkeypatch):
        """Sorted in-flow runs feed the vectorized assembler as raw columns:
        the heuristic block path must never materialize a ``Packet``."""
        import repro.net.packet as packet_mod

        pipeline = QoEPipeline.for_vca("teams")
        engine = StreamingQoEPipeline(pipeline)
        # Wire-style blocks (no in-process packet cache), built up front so
        # only the engine runs under the instrumented constructor.
        blocks = [
            pickle.loads(pickle.dumps(block))
            for block in blocks_from_packets(vantage_packets, 256)
        ]
        constructed = 0
        real_init = packet_mod.Packet.__init__

        def counting_init(self, *args, **kwargs):
            nonlocal constructed
            constructed += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(packet_mod.Packet, "__init__", counting_init)
        emitted = []
        for block in blocks:
            emitted.extend(engine.push_block(block))
        emitted.extend(engine.flush())
        assert constructed == 0
        assert emitted  # the run actually produced estimates

    def test_push_block_after_flush_raises(self, vantage_packets):
        engine = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
        engine.flush()
        with pytest.raises(RuntimeError, match="flushed"):
            engine.push_block(next(blocks_from_packets(vantage_packets, 16)))

    def test_evict_idle_between_blocks_matches_per_packet_eviction_values(self, vantage_packets):
        """Eviction between blocks closes the same windows (per flow/window)."""
        pipeline = QoEPipeline.for_vca("teams")
        engine = StreamingQoEPipeline(pipeline)
        emitted = []
        for block in blocks_from_packets(vantage_packets, 512):
            emitted.extend(engine.push_block(block))
            emitted.extend(engine.evict_idle(2.0))
        emitted.extend(engine.flush())
        reference = per_packet_run(pipeline, vantage_packets)
        key = lambda item: (item.estimate.window_start, str(item.flow))  # noqa: E731
        assert sorted(emitted, key=key) == sorted(reference, key=key)


def stalling_flow(seed: int, duration_s: float = 10.0) -> list[Packet]:
    """``synthetic_flow`` video that stalls twice for seconds, over continuous 50 Hz audio."""
    stalls = ((2.0 + 0.4 * seed, 4.6 + 0.4 * seed), (6.1 + 0.3 * seed, 8.4 + 0.3 * seed))
    video = [
        p
        for p in synthetic_flow(seed, f"10.0.1.{seed + 1}", 51000 + seed, duration_s=duration_s)
        if not any(lo <= p.timestamp < hi for lo, hi in stalls)
    ]
    rng = np.random.default_rng(seed)
    audio = [
        replace(video[0], timestamp=t, payload_size=int(rng.integers(90, 250)))
        for t in np.arange(0.003 * seed, duration_s, 0.02).tolist()
    ]
    return video + audio


class TestLivenessBound:
    """``push_block`` with ``max_frame_age_s`` set: while video stalls and
    audio keeps the stream advancing, stale sweeps fire mid-run, so the
    vectorized heuristic release bails out (committing nothing) and the run
    replays through per-packet ``push``."""

    @pytest.fixture(scope="class")
    def stalling_packets(self):
        return interleave(*(stalling_flow(seed) for seed in range(3)))

    @pytest.mark.parametrize("max_frame_age_s", [0.3, 2.0])
    @pytest.mark.parametrize("chunk_size", [1, 7, 256, 100_000])
    def test_bit_identical_through_the_bailout(self, stalling_packets, max_frame_age_s, chunk_size):
        pipeline = QoEPipeline.for_vca("teams")
        reference = StreamingQoEPipeline(pipeline, config=pipeline.config.replace(max_frame_age_s=max_frame_age_s))
        expected = [item for packet in stalling_packets for item in reference.push(packet)]
        n_live = len(expected)
        expected.extend(reference.flush())

        engine = StreamingQoEPipeline(pipeline, config=pipeline.config.replace(max_frame_age_s=max_frame_age_s))
        emitted = []
        for block in blocks_from_packets(stalling_packets, chunk_size):
            emitted.extend(engine.push_block(block))
        if chunk_size == 1:
            assert len(emitted) == n_live  # same windows already out before the flush
        emitted.extend(engine.flush())
        assert emitted == expected  # values AND order
        bailouts = engine.counters["scalar_fallback_rows"]["liveness"]
        assert bailouts >= 1, "no run hit the liveness bailout: the pin went vacuous"


class TestMonitorBlockDriver:
    def test_block_monitor_identical_to_per_packet_monitor(self, vantage_packets, trained_pipeline):
        for pipeline in (QoEPipeline.for_vca("teams"), trained_pipeline):
            reference = CollectorSink()
            QoEMonitor(pipeline, IteratorSource(iter(vantage_packets)), sinks=reference).run()
            block_sink = CollectorSink()
            report = QoEMonitor(
                pipeline,
                IteratorSource(iter(vantage_packets)),
                sinks=block_sink,
                block_size=256,
            ).run()
            assert block_sink.items == reference.items  # values AND order
            assert report.n_packets == len(vantage_packets)
            assert report.n_flows == 4

    def test_trace_source_native_blocks(self, vantage_packets):
        pipeline = QoEPipeline.for_vca("teams")
        reference = CollectorSink()
        QoEMonitor(pipeline, TraceSource(PacketTrace(vantage_packets)), sinks=reference).run()
        sink = CollectorSink()
        QoEMonitor(
            pipeline, TraceSource(PacketTrace(vantage_packets)), sinks=sink, block_size=128
        ).run()
        assert sink.items == reference.items

    def test_block_monitor_with_idle_eviction_runs(self, vantage_packets):
        pipeline = QoEPipeline.for_vca("teams")
        sink = CollectorSink()
        report = QoEMonitor(
            pipeline,
            IteratorSource(iter(vantage_packets)),
            sinks=sink,
            config=pipeline.config.replace(idle_timeout_s=2.0),
            block_size=64,
        ).run()
        assert report.n_estimates == len(sink.items)
        per_flow: dict = {}
        for item in sink.items:
            per_flow.setdefault(item.flow, []).append(item.estimate.window_start)
        for starts in per_flow.values():
            assert len(starts) == len(set(starts))  # no duplicate windows

    def test_rejects_bad_block_size(self, vantage_packets):
        with pytest.raises(ValueError, match="block_size"):
            QoEMonitor(
                QoEPipeline.for_vca("teams"),
                IteratorSource(iter(vantage_packets)),
                block_size=0,
            )


class TestPcapBlockPath:
    def test_pcap_native_blocks_feed_the_engine_identically(self, tmp_path, vantage_packets):
        from repro.net.pcap import write_pcap
        from repro.sources.base import PcapSource, iter_blocks

        path = tmp_path / "vantage.pcap"
        write_pcap(path, vantage_packets)
        pipeline = QoEPipeline.for_vca("teams")
        reference = CollectorSink()
        QoEMonitor(pipeline, PcapSource(path), sinks=reference).run()

        engine = StreamingQoEPipeline(pipeline)
        emitted = []
        for block in iter_blocks(PcapSource(path), 200):
            assert not block.has_packet_cache  # decoded straight into arrays
            emitted.extend(engine.push_block(block))
        emitted.extend(engine.flush())
        assert [(item.flow, item.estimate) for item in emitted] == [
            (item.flow, item.estimate) for item in reference.items
        ]


class TestChunkEvictionInteraction:
    """push_block ticks interleaved with evict_idle sweeps (the worker loop).

    An eviction between ticks must neither lose a window that was deferred
    into a tick nor re-emit one that already closed: every (flow, window)
    appears exactly once, with exactly the estimate an eviction-free run
    produces (flows that die and never resume lose nothing).
    """

    def _feed(self, pipeline, packets, chunk_size, idle_s):
        engine = StreamingQoEPipeline(pipeline)
        emitted = []
        evicted_flows = set()
        for block in blocks_from_packets(packets, chunk_size):
            emitted.extend(engine.push_block(block))
            swept = engine.evict_idle(idle_s)
            evicted_flows.update(item.flow for item in swept)
            emitted.extend(swept)
        emitted.extend(engine.flush())
        return emitted, evicted_flows

    @pytest.mark.parametrize("trained", [False, True])
    def test_no_lost_or_duplicated_estimates(self, trained_pipeline, trained):
        long_lived = synthetic_flow(5, "10.0.0.5", 50005, duration_s=24.0)
        short = synthetic_flow(6, "10.0.0.6", 50006, duration_s=3.0)
        packets = interleave(long_lived, short)
        pipeline = trained_pipeline if trained else QoEPipeline.for_vca("teams")

        emitted, evicted_flows = self._feed(pipeline, packets, chunk_size=256, idle_s=5.0)
        assert evicted_flows, "the short flow should have been idle-evicted"

        seen = {}
        for item in emitted:
            window = (item.flow, item.estimate.window_start)
            assert window not in seen, f"duplicate estimate for {window}"
            seen[window] = item.estimate

        reference = per_packet_run(pipeline, packets)
        expected = {
            (item.flow, item.estimate.window_start): item.estimate for item in reference
        }
        assert seen == expected  # nothing lost, nothing altered, bit-identical

    def test_eviction_sweep_every_tick_with_tiny_chunks(self, trained_pipeline):
        """Stress the interaction: a sweep after every 16-packet tick."""
        long_lived = synthetic_flow(7, "10.0.0.7", 50007, duration_s=12.0)
        short = synthetic_flow(8, "10.0.0.8", 50008, duration_s=2.0)
        packets = interleave(long_lived, short)
        emitted, _ = self._feed(trained_pipeline, packets, chunk_size=16, idle_s=3.0)
        reference = per_packet_run(trained_pipeline, packets)
        key = lambda item: (item.estimate.window_start, str(item.flow))  # noqa: E731
        assert sorted(emitted, key=key) == sorted(reference, key=key)


def ticks_and_pushes(pipeline, packets, ticks, idle_s=None):
    """Feed ``packets`` as the blocks ``ticks`` to one engine and packet by
    packet to another, with the same ``evict_idle`` sweep after every tick;
    returns ``(block engine, its estimates, per-packet estimates)``."""
    by_block = StreamingQoEPipeline(pipeline)
    by_packet = StreamingQoEPipeline(pipeline)
    got, expected = [], []
    cursor = 0
    for block in ticks:
        got.extend(by_block.push_block(block))
        for packet in packets[cursor : cursor + len(block)]:
            expected.extend(by_packet.push(packet))
        cursor += len(block)
        if idle_s is not None:
            got.extend(by_block.evict_idle(idle_s))
            expected.extend(by_packet.evict_idle(idle_s))
    got.extend(by_block.flush())
    expected.extend(by_packet.flush())
    return by_block, got, expected


class TestStreamsByFlowTable:
    """A tick reaches each flow's stream through a list kept per flow table
    and indexed by flow code; a code the list has not met yet falls back to
    the registry key.  Every run equals per-packet ``push`` fed the same
    calls, in order."""

    def test_shared_table_with_eviction_between_ticks(self, monkeypatch):
        # Flow 1 stops at 2 s and resumes at 5 s on the same 5-tuple; every
        # block is a slice of one block, so all share one flow table.
        packets = interleave(
            synthetic_flow(1, "10.0.0.1", 50001, duration_s=2.0),
            synthetic_flow(11, "10.0.0.1", 50001, duration_s=2.0, start_s=5.0),
            synthetic_flow(2, "10.0.0.2", 50002, duration_s=7.0),
        )
        table = PacketBlock.from_packets(packets)
        ticks = [table[lo : lo + 60] for lo in range(0, len(table), 60)]
        assert all(tick.flows is table.flows for tick in ticks)
        registered = []
        real_add = StreamingQoEPipeline._add_stream

        def spy(engine, key, flow):
            stream = real_add(engine, key, flow)
            registered.append((engine, flow.dst_port, stream))
            return stream

        monkeypatch.setattr(StreamingQoEPipeline, "_add_stream", spy)
        for pipeline in (QoEPipeline.for_vca("teams"), make_trained_pipeline()):
            registered.clear()
            engine, got, expected = ticks_and_pushes(pipeline, packets, ticks, idle_s=1.0)
            assert got == expected
            # The evicted flow re-entered as a fresh stream, once.
            flow_1 = [stream for owner, port, stream in registered if owner is engine and port == 50001]
            assert len(flow_1) == 2 and flow_1[0] is not flow_1[1]

    def test_two_tables_with_one_flow_key_reach_one_stream(self):
        packets = interleave(
            synthetic_flow(3, "10.0.0.3", 50003, duration_s=3.0),
            synthetic_flow(4, "10.0.0.4", 50004, duration_s=3.0),
        )
        # Every 7-row block interns its own table: the same two FlowKeys,
        # coded 0 / 1 in one table and 1 / 0 in another.
        ticks = list(blocks_from_packets(packets, 7))
        assert len({tick.flows[0] for tick in ticks}) == 2
        for pipeline in (QoEPipeline.for_vca("teams"), make_trained_pipeline()):
            engine, got, expected = ticks_and_pushes(pipeline, packets, ticks)
            assert got == expected
            assert len(engine.flows) == 2

    def test_push_then_push_block_on_one_flow(self):
        packets = synthetic_flow(5, "10.0.0.5", 50005, duration_s=4.0)
        half = len(packets) // 2
        table = PacketBlock.from_packets(packets)
        for pipeline in (QoEPipeline.for_vca("teams"), make_trained_pipeline()):
            engine = StreamingQoEPipeline(pipeline)
            got = [item for packet in packets[:half] for item in engine.push(packet)]
            (stream,) = engine._streams.values()
            for lo in range(half, len(packets), 50):
                got.extend(engine.push_block(table[lo : min(lo + 50, len(packets))]))
            assert list(engine._streams.values()) == [stream]
            got.extend(engine.flush())
            assert got == per_packet_run(pipeline, packets)


class TestFinalizedFramesStayColumns:
    def test_a_tick_builds_only_the_frames_open_after_it(self, monkeypatch):
        """Over long sorted single-flow runs, the frames a tick finalizes are
        filed from the kernel's columns: the only ``AssembledFrame`` objects
        a tick constructs are frames its assembler holds open afterwards."""
        import repro.core.frame_assembly as frame_assembly

        packets = synthetic_flow(6, "10.0.0.6", 50006, duration_s=6.0)
        pipeline = QoEPipeline.for_vca("teams")
        ticks = list(blocks_from_packets(packets, 512))
        built = []

        class CountedFrame(frame_assembly.AssembledFrame):
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                frame = super().__new__(cls)
                built.append(frame)
                return frame

        monkeypatch.setattr(frame_assembly, "AssembledFrame", CountedFrame)
        engine = StreamingQoEPipeline(pipeline)
        emitted = []
        for tick in ticks:
            built.clear()
            emitted.extend(engine.push_block(tick))
            (stream,) = engine._streams.values()
            open_after = stream.assembler.open_frames
            assert all(any(frame is held for held in open_after) for frame in built)
            assert len(built) <= len(open_after)
        # Most frames were created and finalized inside a tick.
        assert stream.assembler._next_index > 10 * len(ticks)
        monkeypatch.undo()
        emitted.extend(engine.flush())
        assert emitted == per_packet_run(pipeline, packets)


class TestMidBlockFailure:
    """A block that fails part-way loses no closed window and wedges nothing.

    The first flow of the failing block has already advanced past the
    windows it closed, so they can never re-emit: their estimates must
    arrive at the front of the next ``push_block`` / ``flush``, and the
    engine must keep accepting blocks after the failure.
    """

    POISON = 1333  # no synthetic_flow packet has this payload size

    @pytest.mark.parametrize("resume", ["push_block", "flush"])
    @pytest.mark.parametrize("trained", [False, True])
    def test_closed_windows_are_held_and_the_tick_guard_resets(
        self, trained_pipeline, trained, resume, monkeypatch
    ):
        pipeline = trained_pipeline if trained else QoEPipeline.for_vca("teams")
        classifier = pipeline.ml.media_classifier if trained else pipeline.heuristic.classifier
        packets = interleave(
            synthetic_flow(10, "10.0.0.10", 50010), synthetic_flow(11, "10.0.0.11", 50011)
        )
        # Cuts sit mid-window so the second flow closes nothing before it fails.
        head = [p for p in packets if p.timestamp < 2.5]
        mid = [p for p in packets if 2.5 <= p.timestamp < 5.5]
        rest = [p for p in packets if p.timestamp >= 5.5]
        first_port = mid[0].udp.dst_port
        victim = next(i for i, p in enumerate(mid) if p.udp.dst_port != first_port)
        mid[victim] = replace(mid[victim], payload_size=self.POISON)

        reference = StreamingQoEPipeline(pipeline)
        reference.push_block(PacketBlock.from_packets(head))
        expected_held = reference.push_block(
            PacketBlock.from_packets([p for p in mid if p.udp.dst_port == first_port])
        )
        assert len(expected_held) >= 2, "the first flow should close windows in the failing block"

        real_mask = classifier.video_mask

        def flaky_mask(sizes):
            if self.POISON in sizes:
                raise OSError("classifier hiccup")
            return real_mask(sizes)

        monkeypatch.setattr(classifier, "video_mask", flaky_mask)
        engine = StreamingQoEPipeline(pipeline)
        engine.push_block(PacketBlock.from_packets(head))
        with pytest.raises(OSError, match="classifier hiccup"):
            engine.push_block(PacketBlock.from_packets(mid))
        if resume == "push_block":
            resumed = engine.push_block(PacketBlock.from_packets(rest))
        else:
            resumed = engine.flush()
        assert resumed[: len(expected_held)] == expected_held


def vantage_trace(n_flows: int = 512, duration_s: float = 2.1, stalled: int = 0) -> list[Packet]:
    """``n_flows`` concurrent calls, ~13 packets/s each, windows crossed twice.

    Frames of 1-3 equal-sized fragments every ~0.15 s, so a 1024-row block
    gives each flow a run of ~2 rows -- the vantage-point shape.  The first
    ``stalled`` flows lose their video for 1.2 s mid-call while 50 Hz audio
    keeps their stream advancing (the ``max_frame_age_s`` case); their
    video resumes at the stalled frame's size, so the frame open across the
    stall gains a packet after it.
    """
    packets = []
    for f in range(n_flows):
        rng = np.random.default_rng([7, f])
        ip = IPv4Header(src="192.0.2.10", dst=f"10.1.{f >> 8}.{f & 255}")
        udp = UDPHeader(src_port=3478, dst_port=20000 + f)
        t = float(rng.uniform(0.0, 0.1))
        size, resume = 0, False
        while t < duration_s:
            if f < stalled and 0.6 <= t < 1.8:
                resume = True
            else:
                drawn = int(rng.integers(700, 1200))
                size, resume = (size if resume else drawn), False
                for i in range(int(rng.integers(1, 4))):
                    packets.append(Packet(timestamp=t + i * 0.0008, ip=ip, udp=udp, payload_size=size))
            t += float(rng.normal(0.15, 0.015))
        if f < stalled:
            for t in np.arange(0.005 * f, duration_s, 0.02).tolist():
                packets.append(
                    Packet(timestamp=t, ip=ip, udp=udp, payload_size=int(rng.integers(90, 250)))
                )
    return sorted(packets, key=lambda p: p.timestamp)


def exact_rows(items) -> list[tuple]:
    """Estimates as comparable tuples, floats by bit pattern (NaN-safe)."""
    return [
        (
            item.flow,
            *(float(value).hex() for value in (
                item.estimate.window_start,
                item.estimate.frame_rate,
                item.estimate.bitrate_kbps,
                item.estimate.frame_jitter_ms,
            )),
            item.estimate.resolution,
            item.estimate.source,
        )
        for item in items
    ]


class TestVantageSegmentedTick:
    """The heuristic tick at a vantage point's shape: hundreds of flows with
    a couple of rows each per block, run as one segmented pass."""

    @pytest.fixture(scope="class")
    def vantage512(self):
        return vantage_trace()

    @pytest.mark.parametrize("chunk_size", [1, 97, 1024])
    def test_512_flows_bit_identical_in_order(self, vantage512, chunk_size):
        pipeline = QoEPipeline.for_vca("teams")
        expected = per_packet_run(pipeline, vantage512)
        got = block_run(pipeline, vantage512, chunk_size)
        assert len(expected) > 512
        assert exact_rows(got) == exact_rows(expected)

    @pytest.mark.parametrize("chunk_size", [1, 97, 1024])
    def test_512_flows_with_stalls_under_max_frame_age(self, chunk_size):
        packets = vantage_trace(stalled=24)
        pipeline = QoEPipeline.for_vca("teams")
        expected = per_packet_run(pipeline, packets, config=pipeline.config.replace(max_frame_age_s=0.3))
        engine = StreamingQoEPipeline(pipeline, config=pipeline.config.replace(max_frame_age_s=0.3))
        got = []
        for block in blocks_from_packets(packets, chunk_size):
            got.extend(engine.push_block(block))
        got.extend(engine.flush())
        assert exact_rows(got) == exact_rows(expected)
        assert engine.counters["scalar_fallback_rows"]["liveness"] > 0

    def test_only_the_disordered_flow_replays_per_packet(self, vantage512, monkeypatch):
        victim = vantage512[5000].udp.dst_port  # a flow that is live mid-trace
        packets = list(vantage512)
        flow_rows = [i for i, p in enumerate(packets) if p.udp.dst_port == victim]
        # Swap two of the victim's packets 40 positions apart (well within
        # one 1024-row block and within its reorder depth of 2).
        a = next(i for i in flow_rows if i > 5000)
        b = next(i for i in flow_rows if i > a)
        packets[a], packets[b] = packets[b], packets[a]
        pipeline = QoEPipeline.for_vca("teams")
        expected = per_packet_run(pipeline, packets)

        real = _FlowStream._push_each
        fallen: list[tuple[int, ...]] = []

        def spy(stream, timestamps, sizes, positions):
            fallen.append(tuple(positions.tolist()))
            return real(stream, timestamps, sizes, positions)

        monkeypatch.setattr(_FlowStream, "_push_each", spy)
        engine = StreamingQoEPipeline(pipeline)
        got = []
        offset = 0
        replayed = []
        for block in blocks_from_packets(packets, 1024):
            got.extend(engine.push_block(block))
            replayed.extend(offset + pos for rows in fallen for pos in rows)
            fallen.clear()
            offset += len(block)
        got.extend(engine.flush())
        assert exact_rows(got) == exact_rows(expected)
        assert replayed, "the disordered run never fell back: the pin went vacuous"
        assert {packets[i].udp.dst_port for i in replayed} == {victim}
        assert engine.counters["scalar_fallback_rows"] == {
            "disordered": len(replayed),
            "liveness": 0,
        }

    def test_a_tick_calls_the_segmented_kernel_once(self, vantage512, monkeypatch):
        import repro.core.streaming as streaming

        calls = 0
        real = streaming.assemble_segments

        def spy(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(streaming, "assemble_segments", spy)
        engine = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
        blocks = list(blocks_from_packets(vantage512, 1024))
        for block in blocks:
            before = calls
            engine.push_block(block)
            assert calls == before + 1
        assert engine.counters["scalar_fallback_rows"] == {"disordered": 0, "liveness": 0}

    def test_sorted_input_constructs_zero_block_rows(self, vantage512, monkeypatch):
        import repro.net.block as block_mod

        blocks = [
            pickle.loads(pickle.dumps(block)) for block in blocks_from_packets(vantage512, 1024)
        ]
        constructed = 0
        real_init = block_mod._BlockRow.__init__

        def counting_init(self, *args):
            nonlocal constructed
            constructed += 1
            real_init(self, *args)

        monkeypatch.setattr(block_mod._BlockRow, "__init__", counting_init)
        engine = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
        emitted = []
        for block in blocks:
            emitted.extend(engine.push_block(block))
        assert constructed == 0
        assert emitted


class TestVantageTrainedTick:
    """The trained tick at a vantage point's shape: the heuristic tick's
    segmented front end (demux, delay line, one ``video_mask``), then one
    feature-kernel pass and one forest walk over every window it closes."""

    @pytest.fixture(scope="class")
    def traces(self):
        return {0: vantage_trace(), 24: vantage_trace(stalled=24)}

    @pytest.mark.parametrize("stalled", [0, 24])
    @pytest.mark.parametrize("chunk_size", [1, 97, 1024])
    def test_512_flows_bit_identical_in_order(self, traces, trained_pipeline, stalled, chunk_size):
        """``stalled=24``: audio-only stretches must still close windows."""
        packets = traces[stalled]
        expected = per_packet_run(trained_pipeline, packets)
        assert len(expected) > 512 and all(item.estimate.source == "ml" for item in expected)
        got = block_run(trained_pipeline, packets, chunk_size)
        assert exact_rows(got) == exact_rows(expected)

    def test_a_tick_is_one_feature_pass_and_one_forest_walk(self, traces, trained_pipeline, monkeypatch):
        import repro.core.streaming as streaming

        calls = {"features": 0, "predict_many": 0}
        real_features = streaming.window_features
        real_predict = type(trained_pipeline.ml).predict_many

        def features_spy(*args):
            calls["features"] += 1
            return real_features(*args)

        def predict_spy(estimator, *args):
            calls["predict_many"] += 1
            return real_predict(estimator, *args)

        monkeypatch.setattr(streaming, "window_features", features_spy)
        monkeypatch.setattr(type(trained_pipeline.ml), "predict_many", predict_spy)
        engine = StreamingQoEPipeline(trained_pipeline)
        widest = 0
        for block in blocks_from_packets(traces[0], 1024):
            before = dict(calls)
            out = engine.push_block(block)
            step = 1 if out else 0
            assert calls == {name: count + step for name, count in before.items()}
            widest = max(widest, len({item.flow for item in out}))
        assert widest > 100  # one pass really spans many flows' windows
        assert engine.counters["scalar_fallback_rows"] == {"disordered": 0, "liveness": 0}

    def test_only_the_disordered_flow_replays_per_packet(self, traces, trained_pipeline, monkeypatch):
        packets = list(traces[0])
        victim = packets[5000].udp.dst_port  # a flow that is live mid-trace
        flow_rows = [i for i, p in enumerate(packets) if p.udp.dst_port == victim]
        a = next(i for i in flow_rows if i > 5000)
        b = next(i for i in flow_rows if i > a)
        packets[a], packets[b] = packets[b], packets[a]
        expected = per_packet_run(trained_pipeline, packets)

        real = _FlowStream._push_each
        fallen: list[tuple[int, ...]] = []

        def spy(stream, timestamps, sizes, positions):
            fallen.append(tuple(positions.tolist()))
            return real(stream, timestamps, sizes, positions)

        monkeypatch.setattr(_FlowStream, "_push_each", spy)
        engine = StreamingQoEPipeline(trained_pipeline)
        got = []
        offset = 0
        replayed = []
        for block in blocks_from_packets(packets, 1024):
            got.extend(engine.push_block(block))
            replayed.extend(offset + pos for rows in fallen for pos in rows)
            fallen.clear()
            offset += len(block)
        got.extend(engine.flush())
        assert exact_rows(got) == exact_rows(expected)
        assert replayed, "the disordered run never fell back: the pin went vacuous"
        assert {packets[i].udp.dst_port for i in replayed} == {victim}
        assert engine.counters["scalar_fallback_rows"] == {
            "disordered": len(replayed),
            "liveness": 0,
        }

    def test_sorted_input_constructs_zero_block_rows(self, traces, trained_pipeline, monkeypatch):
        import repro.net.block as block_mod

        blocks = [
            pickle.loads(pickle.dumps(block)) for block in blocks_from_packets(traces[24], 1024)
        ]
        constructed = 0
        real_init = block_mod._BlockRow.__init__

        def counting_init(self, *args):
            nonlocal constructed
            constructed += 1
            real_init(self, *args)

        monkeypatch.setattr(block_mod._BlockRow, "__init__", counting_init)
        engine = StreamingQoEPipeline(trained_pipeline)
        emitted = []
        for block in blocks:
            emitted.extend(engine.push_block(block))
        assert constructed == 0
        assert emitted


class TestTrainedEviction:
    def test_mass_eviction_is_one_forest_walk(self, trained_pipeline, monkeypatch):
        """Every window an ``evict_idle`` sweep closes, across all evicted
        flows, resolves in one feature pass and one ``predict_many`` -- with
        the values a flush of the same flows gives."""
        dying = [synthetic_flow(seed, f"10.0.2.{seed}", 52000 + seed, duration_s=3.0) for seed in range(10)]
        survivor = synthetic_flow(20, "10.0.2.20", 52020, duration_s=9.0)
        packets = interleave(*dying, survivor)
        reference = StreamingQoEPipeline(trained_pipeline)
        engine = StreamingQoEPipeline(trained_pipeline)
        for packet in packets:
            reference.push(packet)
            engine.push(packet)
        survivor_key = next(key for key in reference.flows if key.dst_port == 52020)
        expected = [item for item in reference.flush() if item.flow != survivor_key]

        calls = 0
        real_predict = type(trained_pipeline.ml).predict_many

        def predict_spy(estimator, *args):
            nonlocal calls
            calls += 1
            return real_predict(estimator, *args)

        monkeypatch.setattr(type(trained_pipeline.ml), "predict_many", predict_spy)
        evicted = engine.evict_idle(idle_s=3.0)
        assert calls == 1
        assert len({item.flow for item in evicted}) == 10 and len(evicted) > 10
        assert exact_rows(evicted) == exact_rows(expected)
