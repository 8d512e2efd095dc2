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
from repro.net.packet import Packet
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


def per_packet_run(pipeline, packets, **engine_kwargs):
    engine = StreamingQoEPipeline(pipeline, **engine_kwargs)
    emitted = [item for packet in packets for item in engine.push(packet)]
    emitted.extend(engine.flush())
    return emitted


def block_run(pipeline, packets, chunk_size, wire=False, **engine_kwargs):
    engine = StreamingQoEPipeline(pipeline, **engine_kwargs)
    emitted = []
    for block in blocks_from_packets(packets, chunk_size):
        if wire:
            block = pickle.loads(pickle.dumps(block))
        emitted.extend(engine.push_block(block))
    emitted.extend(engine.flush())
    return emitted


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
                                       reorder_depth=0)
            engine = StreamingQoEPipeline(pipeline, reorder_depth=0)
            emitted = []
            for chunk in feed:
                emitted.extend(engine.push_block(PacketBlock.from_packets(chunk)))
            emitted.extend(engine.flush())
            assert emitted == reference
            assert np.all([e.estimate.window_start >= 10.0 for e in emitted])

    def test_single_flow_mode(self, trained_pipeline):
        packets = synthetic_flow(2, "10.0.0.2", 50002, duration_s=6.0)
        for pipeline in (QoEPipeline.for_vca("teams"), trained_pipeline):
            assert block_run(pipeline, packets, 128, demux_flows=False) == per_packet_run(
                pipeline, packets, demux_flows=False
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
    def test_bit_identical_through_the_bailout(
        self, stalling_packets, max_frame_age_s, chunk_size, monkeypatch
    ):
        pipeline = QoEPipeline.for_vca("teams")
        reference = StreamingQoEPipeline(pipeline, max_frame_age_s=max_frame_age_s)
        expected = [item for packet in stalling_packets for item in reference.push(packet)]
        n_live = len(expected)
        expected.extend(reference.flush())

        real = _FlowStream._push_rows_heuristic
        bailouts = 0

        def spy(stream, *args):
            nonlocal bailouts
            result = real(stream, *args)
            bailouts += result is None
            return result

        monkeypatch.setattr(_FlowStream, "_push_rows_heuristic", spy)
        engine = StreamingQoEPipeline(pipeline, max_frame_age_s=max_frame_age_s)
        emitted = []
        for block in blocks_from_packets(stalling_packets, chunk_size):
            emitted.extend(engine.push_block(block))
        if chunk_size == 1:
            assert len(emitted) == n_live  # same windows already out before the flush
        emitted.extend(engine.flush())
        assert emitted == expected  # values AND order
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


class TestMidBlockFailure:
    """A block that fails part-way loses no closed window and wedges nothing.

    The first flow of the failing block has already advanced past the
    windows it closed, so they can never re-emit: their estimates must
    arrive at the front of the next ``push_block`` / ``flush``.  And the
    trained-mode tick buffer must be cleared, or every later block would be
    refused as reentrant.
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
