"""Shared-memory block transport tests: codec, ring, and the full monitor.

The pinned acceptance criteria of the PR 5 transport:

* the flat-buffer codec round-trips every block bit-identically, handing
  out zero-copy views on decode;
* :class:`~repro.cluster.shm.BlockRing` is a correct bounded SPSC ring
  (back-pressure on full, FIFO, slot reuse only after release);
* ``ShardedQoEMonitor(transport="shm")`` emits exactly the estimates of
  the ``"block"`` queue transport and the single-process monitor, in the
  same fan-in order, for N = 1, 2, 4 workers, heuristic and trained;
* no SharedMemory segment outlives a run -- normal exit, parent-side
  abort, and worker death included.
"""

from __future__ import annotations

import multiprocessing
import queue
from types import SimpleNamespace

import numpy as np
import pytest

from repro import CollectorSink, IteratorSource, QoEMonitor, QoEPipeline, ShardedQoEMonitor
from repro.cluster.fanin import flow_sort_key
from repro.cluster.monitor import _ForwardLink
from repro.cluster.router import FlowShardRouter
from repro.cluster.shm import BlockRing, shm_available
from repro.cluster.worker import _WorkerChannel
from repro.net.flows import FlowKey
from repro.sources.base import iter_blocks
from repro.net.block import PacketBlock
from repro.net.media import MediaType
from repro.net.packet import IPv4Header, Packet, UDPHeader
from repro.rtp.header import RTPHeader

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable on this platform"
)

_COLUMNS = (
    "timestamps", "sizes", "src_codes", "dst_codes", "src_ports", "dst_ports",
    "protocols", "ttls", "total_lengths", "udp_lengths", "flow_codes",
)


def make_packet(timestamp=0.0, dst="10.0.0.1", dst_port=50000, size=1000, **extra):
    return Packet(
        timestamp=timestamp,
        ip=IPv4Header(src="192.0.2.10", dst=dst),
        udp=UDPHeader(src_port=3478, dst_port=dst_port),
        payload_size=size,
        **extra,
    )


def make_block(n=32, n_flows=3, **extra) -> PacketBlock:
    return PacketBlock.from_packets(
        [
            make_packet(timestamp=0.01 * i, dst_port=50000 + i % n_flows, size=900 + i, **extra)
            for i in range(n)
        ],
        keep_packets=False,
    )


def encoded(block: PacketBlock) -> bytearray:
    buf = bytearray(block.byte_size())
    written = block.write_into(memoryview(buf))
    assert written == len(buf)
    return buf


def assert_blocks_equal(a: PacketBlock, b: PacketBlock) -> None:
    assert a.addresses == b.addresses
    assert a.flows == b.flows
    for name in _COLUMNS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype.itemsize == right.dtype.itemsize, name
        assert np.array_equal(left, right), name


def no_segment_leaked(names) -> bool:
    from multiprocessing import shared_memory

    for name in names:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        segment.close()
        return False
    return True


class TestFlatBufferCodec:
    def test_round_trip_bit_identical(self):
        block = make_block()
        decoded = PacketBlock.read_from(memoryview(encoded(block)))
        assert_blocks_equal(block, decoded)
        assert decoded.media_codes is None and decoded.frame_ids is None
        assert decoded.rtp is None and not decoded.has_packet_cache

    def test_round_trip_optional_columns(self):
        block = PacketBlock.from_packets(
            [
                make_packet(timestamp=0.01 * i, media_type=MediaType.VIDEO if i % 2 else None,
                            frame_id=i if i % 3 else None)
                for i in range(1, 20)
            ]
        )
        decoded = PacketBlock.read_from(memoryview(encoded(block)))
        assert_blocks_equal(block, decoded)
        assert np.array_equal(decoded.media_codes, block.media_codes)
        assert np.array_equal(decoded.frame_ids, block.frame_ids)
        # Full fidelity through packet materialization too.
        assert [p.media_type for p in decoded.to_packets()] == [
            p.media_type for p in block.to_packets()
        ]

    def test_decode_is_zero_copy_views(self):
        buf = encoded(make_block())
        first = PacketBlock.read_from(memoryview(buf))
        second = PacketBlock.read_from(memoryview(buf))
        for name in _COLUMNS:
            assert getattr(first, name).base is not None, name
        # Two decodes of one buffer alias the same memory: proof of zero-copy.
        original = float(second.timestamps[0])
        first.timestamps[0] = original + 1.0
        assert second.timestamps[0] == original + 1.0

    def test_empty_block_round_trips(self):
        block = PacketBlock.from_packets([])
        decoded = PacketBlock.read_from(memoryview(encoded(block)))
        assert len(decoded) == 0 and decoded.flows == () and decoded.addresses == ()

    def test_rtp_blocks_are_not_flat_encodable(self):
        rtp = RTPHeader(payload_type=96, sequence_number=7, timestamp=90000, ssrc=1)
        block = PacketBlock.from_packets([make_packet(rtp=rtp)])
        with pytest.raises(ValueError, match="RTP"):
            block.byte_size()
        with pytest.raises(ValueError, match="RTP"):
            block.write_into(memoryview(bytearray(1 << 16)))

    def test_write_into_checks_capacity_and_read_checks_magic(self):
        block = make_block()
        with pytest.raises(ValueError, match="too small"):
            block.write_into(memoryview(bytearray(block.byte_size() - 8)))
        junk = bytearray(encoded(block))
        junk[:4] = b"XXXX"
        with pytest.raises(ValueError, match="magic"):
            PacketBlock.read_from(memoryview(junk))

    def test_sliced_block_encodes_its_view(self):
        block = make_block(n=64)
        part = block[10:30].compact()
        decoded = PacketBlock.read_from(memoryview(encoded(part)))
        assert_blocks_equal(part, decoded)


class TestBlockRing:
    def _ring(self, slot_count=2, slot_bytes=8192):
        ctx = multiprocessing.get_context("spawn")
        ring = BlockRing.create(ctx, slot_count, slot_bytes)
        return ring, ring.handle().attach()

    def test_fifo_round_trip(self):
        ring, consumer = self._ring()
        try:
            blocks = [make_block(n=8 + i) for i in range(5)]
            for block in blocks:
                assert ring.try_push(block)
                popped = consumer.pop(timeout=1.0)
                assert_blocks_equal(block, popped)
                del popped
                consumer.release()
        finally:
            consumer.close()
            ring.close()
            ring.unlink()

    def test_backpressure_and_slot_reuse(self):
        ring, consumer = self._ring(slot_count=2)
        try:
            block = make_block()
            assert ring.try_push(block) and ring.try_push(block)
            assert not ring.try_push(block, timeout=0.05)  # full: producer blocks
            popped = consumer.pop(timeout=1.0)
            del popped
            consumer.release()
            assert ring.try_push(block, timeout=0.5)  # released slot is reusable
        finally:
            consumer.close()
            ring.close()
            ring.unlink()

    def test_pop_empty_times_out_and_release_requires_pop(self):
        ring, consumer = self._ring()
        try:
            assert consumer.pop(timeout=0.05) is None
            with pytest.raises(RuntimeError, match="no popped block"):
                consumer.release()
            assert ring.try_push(make_block())
            consumer.pop(timeout=1.0)
            with pytest.raises(RuntimeError, match="not released"):
                consumer.pop(timeout=0.05)
        finally:
            consumer.close()
            ring.close()
            ring.unlink()

    def test_oversized_block_raises_without_consuming_a_slot(self):
        ring, consumer = self._ring(slot_count=1, slot_bytes=1024)
        try:
            with pytest.raises(ValueError, match="exceeds"):
                ring.try_push(make_block(n=512))
            assert ring.try_push(make_block(n=4))  # the slot is still free
        finally:
            consumer.close()
            ring.close()
            ring.unlink()

    def test_close_tolerates_live_views_of_a_popped_slot(self):
        """The worker's error path closes the ring while its last decoded
        block is still in scope; close() must not raise a secondary
        BufferError over the still-exported slot view."""
        import gc

        ring, consumer = self._ring()
        name = ring.name
        assert ring.try_push(make_block())
        block = consumer.pop(timeout=1.0)  # intentionally kept alive
        consumer.close()
        ring.close()
        ring.unlink()
        assert no_segment_leaked([name])
        assert block is not None
        # Drop the views so the segments' deferred __del__ unmaps quietly.
        del block
        gc.collect()

    def test_unlink_reclaims_segment(self):
        ring, consumer = self._ring()
        name = ring.name
        consumer.close()
        ring.close()
        ring.unlink()
        assert no_segment_leaked([name])

    def test_create_validates_arguments(self):
        ctx = multiprocessing.get_context("spawn")
        with pytest.raises(ValueError, match="slot_count"):
            BlockRing.create(ctx, 0)
        with pytest.raises(ValueError, match="slot_bytes"):
            BlockRing.create(ctx, 2, slot_bytes=16)


def fan_in_order(items):
    return sorted(items, key=lambda item: (item.estimate.window_start, flow_sort_key(item.flow)))


def as_rows(items):
    return [(item.flow, item.estimate) for item in items]


def run_sharded(pipeline, packets, n_workers, **kwargs):
    sink = CollectorSink()
    monitor = ShardedQoEMonitor(
        pipeline, IteratorSource(iter(packets)), sinks=sink, n_workers=n_workers, **kwargs
    )
    report = monitor.run()
    return sink, report, monitor


def ring_names(monitor) -> list[str]:
    return list(monitor._segment_names)


class TestShmTransportEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_matches_block_transport_and_single_process(self, many_flow_packets, n_workers):
        pipeline = QoEPipeline.for_vca("teams")
        single = CollectorSink()
        QoEMonitor(pipeline, IteratorSource(iter(many_flow_packets)), sinks=single).run()
        expected = as_rows(fan_in_order(single.items))

        shm_sink, shm_report, monitor = run_sharded(
            pipeline, many_flow_packets, n_workers, transport="shm"
        )
        block_sink, block_report, _ = run_sharded(
            pipeline, many_flow_packets, n_workers, transport="block"
        )
        assert as_rows(shm_sink.items) == as_rows(block_sink.items) == expected
        assert shm_report == block_report
        assert shm_report.n_packets == len(many_flow_packets)
        assert no_segment_leaked(ring_names(monitor))

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_trained_bit_identical(self, many_flow_packets, trained_pipeline, n_workers):
        single = CollectorSink()
        QoEMonitor(trained_pipeline, IteratorSource(iter(many_flow_packets)), sinks=single).run()
        expected = as_rows(fan_in_order(single.items))
        assert all(estimate.source == "ml" for _, estimate in expected)
        sink, _, monitor = run_sharded(
            trained_pipeline, many_flow_packets, n_workers, transport="shm"
        )
        # Dataclass equality on floats == bit-identical predictions, through
        # the flat-buffer codec and the ring.
        assert as_rows(sink.items) == expected
        assert no_segment_leaked(ring_names(monitor))

    def test_tiny_slots_split_blocks_without_changing_output(self, many_flow_packets):
        pipeline = QoEPipeline.for_vca("teams")
        small, _, monitor = run_sharded(
            pipeline, many_flow_packets, 2, transport="shm", shm_slot_bytes=2048
        )
        large, _, _ = run_sharded(pipeline, many_flow_packets, 2, transport="shm")
        assert as_rows(small.items) == as_rows(large.items)
        assert no_segment_leaked(ring_names(monitor))

    def test_rtp_blocks_fall_back_to_queue(self, many_flow_packets):
        """Blocks the codec refuses (RTP object columns) ride the queue."""
        rtp_packets = [
            make_packet(
                timestamp=0.01 * i,
                dst_port=50000 + i % 3,
                rtp=RTPHeader(payload_type=96, sequence_number=i % 65536,
                              timestamp=i * 3000, ssrc=42),
            )
            for i in range(400)
        ]
        pipeline = QoEPipeline.for_vca("teams")
        shm_sink, _, monitor = run_sharded(pipeline, rtp_packets, 2, transport="shm")
        block_sink, _, _ = run_sharded(pipeline, rtp_packets, 2, transport="block")
        assert as_rows(shm_sink.items) == as_rows(block_sink.items)
        assert len(shm_sink.items) > 0
        assert no_segment_leaked(ring_names(monitor))

    def test_queue_depth_validated_and_exposed(self, many_flow_packets):
        pipeline = QoEPipeline.for_vca("teams")
        with pytest.raises(ValueError, match="queue_depth"):
            ShardedQoEMonitor(
                pipeline, IteratorSource(iter(many_flow_packets)), queue_depth=0
            )
        # A depth-1 ring still produces identical output (maximal contention).
        deep, _, _ = run_sharded(pipeline, many_flow_packets, 2, transport="shm")
        shallow, _, _ = run_sharded(
            pipeline, many_flow_packets, 2, transport="shm", queue_depth=1
        )
        assert as_rows(shallow.items) == as_rows(deep.items)


class _FakeRing:
    """The producer surface of a ``BlockRing`` with a settable free-slot count.

    Decodes what it is handed, so a test reads slots back as blocks; logs
    every slot into the shared ``events`` list the fake monitor also logs
    queue messages into, so ordering across the two carriers is one list.
    """

    slot_bytes = 8192
    segment_cost = staticmethod(BlockRing.segment_cost)

    def __init__(self, events: list, free: int = 0) -> None:
        self.events = events
        self.free = free
        self.slots: list[list[PacketBlock]] = []
        self.timeouts: list = []

    @property
    def max_segment_bytes(self) -> int:
        return self.slot_bytes - 8

    def try_push_segments(self, payloads, timeout=None) -> bool:
        assert payloads
        assert sum(self.segment_cost(size) for size, _ in payloads) <= self.slot_bytes
        self.timeouts.append(timeout)
        if not self.free:
            return False
        self.free -= 1
        slot = []
        for size, write_into in payloads:
            buf = bytearray(size)
            write_into(memoryview(buf))
            slot.append(PacketBlock.read_from(memoryview(buf)))
        self.slots.append(slot)
        self.events.append(("slot", len(slot)))
        return True


class _FakeMonitor(ShardedQoEMonitor):
    """A never-run monitor whose queue and pump are lists and counters.

    ``_pump_blocked_on`` stands for the worker finishing a slot: it frees
    one, which is the only way a blocked link gets to make progress.
    """

    def __init__(self, n_workers: int = 1, free: int = 0) -> None:
        super().__init__(
            QoEPipeline.for_vca("teams"), IteratorSource(iter(())), n_workers=n_workers
        )
        self.events: list = []
        self.pumps = 0
        self._workers = [
            SimpleNamespace(shard_id=shard, ring=_FakeRing(self.events, free))
            for shard in range(n_workers)
        ]
        self._links = [_ForwardLink(self, worker) for worker in self._workers]
        self._done = [False] * n_workers

    def _send(self, worker, message) -> None:
        self.events.append(message)

    def _pump_blocked_on(self, worker) -> None:
        self.pumps += 1
        worker.ring.free += 1

    def _await_migration(self, src, epoch):
        return [], None, []


class TestSelfClockingForwardLink:
    """``_ForwardLink.add`` against a fake ring: no process, no clock."""

    def test_ring_with_room_ships_every_sub_block_in_the_add_that_routed_it(self):
        monitor = _FakeMonitor(free=8)
        link, ring = monitor._links[0], monitor._workers[0].ring
        blocks = [make_block(n=8 + i) for i in range(5)]
        for i, block in enumerate(blocks):
            link.add(block)
            assert link._pending == [] and link._pending_cost == 0
            assert len(ring.slots) == i + 1
        assert monitor.events == [("slot", 1), ("shm",)] * 5
        for block, slot in zip(blocks, ring.slots):
            assert_blocks_equal(block, slot[0])
        assert ring.timeouts == [0] * 5 and monitor.pumps == 0

    def test_full_ring_batches_without_blocking_and_ships_in_routed_order(self):
        monitor = _FakeMonitor(free=0)
        link, ring = monitor._links[0], monitor._workers[0].ring
        blocks = [make_block(n=8 + i) for i in range(4)]
        for block in blocks[:3]:
            link.add(block)
        # Nowhere to go: nothing was written, nothing was waited for.
        assert [block for _, block in link._pending] == blocks[:3]
        assert monitor.events == [] and monitor.pumps == 0
        assert ring.timeouts == [0] * 3
        ring.free = 1
        link.add(blocks[3])
        assert link._pending == []
        assert monitor.events == [("slot", 4), ("shm",)]
        for block, segment in zip(blocks, ring.slots[0]):
            assert_blocks_equal(block, segment)
        assert monitor.pumps == 0

    def test_batch_that_would_overflow_a_slot_blocks_instead(self):
        monitor = _FakeMonitor(free=0)
        link, ring = monitor._links[0], monitor._workers[0].ring
        block = make_block(n=32)
        fits = ring.slot_bytes // ring.segment_cost(block.byte_size())
        assert fits >= 2
        for _ in range(fits):
            link.add(block)
        assert len(link._pending) == fits and monitor.pumps == 0
        last = make_block(n=31)
        link.add(last)
        # The full batch left first, through the blocking path (the fake
        # ring itself asserts no slot was ever overfilled); the newcomer is
        # offered behind it and waits its turn.
        assert monitor.pumps == 1
        assert monitor.events == [("slot", fits), ("shm",)]
        assert [pending for _, pending in link._pending] == [last]
        ring.free = 1
        link.flush()
        assert monitor.events == [("slot", fits), ("shm",), ("slot", 1), ("shm",)]
        assert_blocks_equal(last, ring.slots[1][0])

    def test_fall_back_flushes_ahead_of_its_queue_message(self):
        monitor = _FakeMonitor(free=0)
        link = monitor._links[0]
        link.add(make_block(n=8))
        link.add(make_block(n=9))
        rtp = RTPHeader(payload_type=96, sequence_number=7, timestamp=90000, ssrc=1)
        unencodable = PacketBlock.from_packets([make_packet(rtp=rtp)])
        link.add(unencodable)
        assert monitor.events == [("slot", 2), ("shm",), ("block", unencodable)]
        assert link._pending == [] and monitor.pumps == 1
        assert link._queue_fallbacks == 1

    def test_migrate_flushes_the_old_home_ahead_of_the_cut(self):
        monitor = _FakeMonitor(n_workers=2, free=0)
        flow = FlowKey("192.0.2.10", 3478, "10.0.0.1", 50000)
        src = monitor.router.shard_of_key(flow)
        monitor._links[src].add(make_block(n=8))
        monitor._migrate(flow, 1 - src)
        kinds = [event[0] for event in monitor.events]
        assert kinds == ["slot", "shm", "migrate_out", "migrate_in"]
        assert monitor._links[src]._pending == []


class _RecordingQueue:
    """Wraps a worker's input queue, recording the kind of every message."""

    def __init__(self, inner, kinds):
        self._inner = inner
        self._kinds = kinds

    def put(self, message, timeout=None):
        self._kinds.append(message[0])
        self._inner.put(message, timeout=timeout)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _RecordingMonitor(ShardedQoEMonitor):
    """Records every worker->parent message the parent handles."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reverse_messages = []

    def _handle(self, message):
        self.reverse_messages.append(message)
        super()._handle(message)


class TestZeroPickleReturnPath:
    def test_tiny_return_slots_split_batches(self, many_flow_packets):
        # shm_slot_bytes applies to both directions: 1 KiB slots force the
        # return batcher to split tick batches across slots (and the forward
        # router to split blocks), without changing the merged output.
        pipeline = QoEPipeline.for_vca("teams")
        small, _, monitor = run_sharded(
            pipeline, many_flow_packets, 2, transport="shm", shm_slot_bytes=1024
        )
        large, _, _ = run_sharded(pipeline, many_flow_packets, 2, transport="shm")
        assert as_rows(small.items) == as_rows(large.items)
        assert no_segment_leaked(ring_names(monitor))

    def test_trained_ring_return_bit_identical(self, many_flow_packets, trained_pipeline):
        single = CollectorSink()
        QoEMonitor(trained_pipeline, IteratorSource(iter(many_flow_packets)), sinks=single).run()
        expected = as_rows(fan_in_order(single.items))
        sink, _, monitor = run_sharded(
            trained_pipeline, many_flow_packets, 2, transport="shm"
        )
        assert as_rows(sink.items) == expected
        assert no_segment_leaked(ring_names(monitor))

    def test_transport_stats_surface(self, many_flow_packets):
        pipeline = QoEPipeline.for_vca("teams")
        _, report, monitor = run_sharded(
            pipeline, many_flow_packets, 2, transport="shm", chunk_size=32
        )
        for stats in monitor.shard_stats:
            for direction in ("forward", "reverse"):
                counters = stats["transport"][direction]
                assert counters["slots_written"] >= 1
                assert counters["segments_written"] >= counters["slots_written"]
                assert counters["max_segments_per_slot"] >= 1
                assert counters["occupancy_hwm"] >= 1
                assert counters["queue_fallbacks"] == 0
                assert counters["slot_reuses"] == max(
                    0, counters["slots_written"] - monitor.queue_depth
                )
        # The report aggregates: counts sum, high-water marks max.
        for direction in ("forward", "reverse"):
            per_shard = [stats["transport"][direction] for stats in monitor.shard_stats]
            agg = report.transport[direction]
            assert agg["slots_written"] == sum(c["slots_written"] for c in per_shard)
            assert agg["occupancy_hwm"] == max(c["occupancy_hwm"] for c in per_shard)
        # Forward, every routed sub-block is one segment; how many share a
        # slot depends on how often the ring happened to be full (see
        # TestSelfClockingForwardLink for the deterministic pins).
        router = FlowShardRouter(2)
        routed = sum(
            len(router.partition_block(block))
            for block in iter_blocks(IteratorSource(iter(many_flow_packets)), 32)
        )
        forward = report.transport["forward"]
        assert forward["segments_written"] == routed
        assert forward["slots_written"] <= forward["segments_written"]

    def test_no_payload_crosses_a_queue(self, many_flow_packets, monkeypatch):
        """The zero-pickle pin: with flat-encodable traffic, both queues
        carry only slot tokens and control messages -- no PacketBlock, no
        estimate payload."""
        import repro.cluster.monitor as monitor_module
        from repro.cluster.worker import ShardWorker

        forward_kinds: list = []

        class RecordingWorker(ShardWorker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.in_queue = _RecordingQueue(self.in_queue, forward_kinds)

        monkeypatch.setattr(monitor_module, "ShardWorker", RecordingWorker)
        sink = CollectorSink()
        monitor = _RecordingMonitor(
            QoEPipeline.for_vca("teams"),
            IteratorSource(iter(many_flow_packets)),
            sinks=sink,
            n_workers=2,
            transport="shm",
        )
        monitor.run()
        assert sink.items
        # Forward: slot tokens and the stop control, nothing else.
        assert "shm" in forward_kinds
        assert set(forward_kinds) <= {"shm", "stop"}
        # Reverse: slot tokens and the final done controls, nothing else --
        # and the done message's item list is empty (the tail rode the ring).
        kinds = {message[0] for message in monitor.reverse_messages}
        assert "est" in kinds
        assert kinds <= {"est", "done"}
        for message in monitor.reverse_messages:
            if message[0] == "done":
                assert message[2] == []


class _AbortSink(CollectorSink):
    """Raises once a few estimates have arrived: a parent-side abort."""

    def emit(self, item):
        super().emit(item)
        if len(self.items) >= 3:
            raise RuntimeError("synthetic sink failure")


class TestShmCleanup:
    def test_abort_mid_run_unlinks_segments(self, many_flow_packets):
        monitor = ShardedQoEMonitor(
            QoEPipeline.for_vca("teams"),
            IteratorSource(iter(many_flow_packets)),
            sinks=_AbortSink(),
            n_workers=2,
            transport="shm",
        )
        with pytest.raises(RuntimeError, match="synthetic sink failure"):
            monitor.run()
        # Both directions were attached (forward + reverse ring per shard)
        # and every segment was reclaimed despite the abort -- which exercises
        # the sink raising *inside* the return-slot decode.
        assert len(ring_names(monitor)) == 2 * monitor.n_workers
        assert no_segment_leaked(ring_names(monitor))

    def test_worker_death_raises_and_unlinks_segments(self, many_flow_packets):
        monitor_box: dict = {}

        def killing_source():
            for i, packet in enumerate(many_flow_packets):
                if i == len(many_flow_packets) // 4:
                    # SIGKILL one worker mid-run: no atexit, no cleanup on its
                    # side -- the parent alone must reclaim the segments.
                    victim = monitor_box["monitor"]._workers[0].process
                    victim.kill()
                    victim.join(5.0)
                yield packet

        monitor = ShardedQoEMonitor(
            QoEPipeline.for_vca("teams"),
            IteratorSource(killing_source()),
            sinks=CollectorSink(),
            n_workers=2,
            transport="shm",
            queue_depth=2,  # small ring: the parent hits the dead shard fast
        )
        monitor_box["monitor"] = monitor
        with pytest.raises(RuntimeError, match="shard worker"):
            monitor.run()
        # The SIGKILLed worker had both a forward and a reverse ring attached
        # untracked; the parent alone reclaimed all of them.
        assert len(ring_names(monitor)) == 2 * monitor.n_workers
        assert no_segment_leaked(ring_names(monitor))

    def test_shm_transport_requires_availability_flag(self, many_flow_packets, monkeypatch):
        import repro.cluster.monitor as monitor_module

        monkeypatch.setattr(monitor_module, "shm_available", lambda: False)
        with pytest.raises(RuntimeError, match="shared_memory"):
            ShardedQoEMonitor(
                QoEPipeline.for_vca("teams"),
                IteratorSource(iter(many_flow_packets)),
                transport="shm",
            )

    def test_ring_creation_failure_unlinks_the_rings_already_made(
        self, many_flow_packets, monkeypatch
    ):
        created: list[str] = []
        real_create = BlockRing.create

        def create_then_fail(ctx, slot_count, slot_bytes):
            if created:
                raise OSError("no space left on /dev/shm")
            ring = real_create(ctx, slot_count, slot_bytes)
            created.append(ring.name)
            return ring

        monkeypatch.setattr(BlockRing, "create", staticmethod(create_then_fail))
        monitor = ShardedQoEMonitor(
            QoEPipeline.for_vca("teams"),
            IteratorSource(iter(many_flow_packets)),
            sinks=CollectorSink(),
            n_workers=2,
            transport="shm",
        )
        with pytest.raises(OSError, match="no space left"):
            monitor.run()
        assert len(created) == 1
        assert no_segment_leaked(created)

    def test_slot_bytes_validated_at_construction(self, many_flow_packets):
        # Not in run(): a typo must not burn the one-shot monitor.
        with pytest.raises(ValueError, match="shm_slot_bytes"):
            ShardedQoEMonitor(
                QoEPipeline.for_vca("teams"),
                IteratorSource(iter(many_flow_packets)),
                transport="shm",
                shm_slot_bytes=512,  # below shm.MIN_SLOT_BYTES
            )


class TestWorkerChannelProtocol:
    """The worker output protocol is linear: progress* -> done | error."""

    def test_progress_after_done_raises(self):
        out: queue.Queue = queue.Queue()
        channel = _WorkerChannel(3, out)
        channel.progress([], 1.0)
        channel.estimates_ready()
        channel.migrated(1, [], None, [])
        channel.migrate_ack(1)
        channel.done([], {})
        with pytest.raises(RuntimeError, match="progress after done"):
            channel.progress([], 2.0)
        with pytest.raises(RuntimeError, match="progress after done"):
            channel.estimates_ready()
        with pytest.raises(RuntimeError, match="migration after done"):
            channel.migrated(2, [], None, [])
        with pytest.raises(RuntimeError, match="migration after done"):
            channel.migrate_ack(2)
        with pytest.raises(RuntimeError, match="done twice"):
            channel.done([], {})
        kinds = []
        while not out.empty():
            kinds.append(out.get_nowait()[0])
        assert kinds == ["progress", "est", "migrated", "migrate_ack", "done"]

    def test_progress_and_est_carry_optional_load(self):
        out: queue.Queue = queue.Queue()
        channel = _WorkerChannel(0, out)
        load = {"live_flows": 2, "buffered_packets": 7, "open_windows": 3}
        channel.progress([], 1.0, load)
        channel.estimates_ready(load)
        channel.progress([], 2.0)
        assert out.get_nowait() == ("progress", 0, [], 1.0, load)
        assert out.get_nowait() == ("est", 0, load)
        assert out.get_nowait() == ("progress", 0, [], 2.0, None)
