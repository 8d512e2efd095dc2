"""Unit tests for the sharding router, the fan-in merge, and the worker loop.

These cover the cluster's deterministic plumbing without process overhead;
the end-to-end multiprocess behaviour is pinned by
``test_sharded_monitor.py``.
"""

from __future__ import annotations

import json
import math
import queue

import pytest

from repro import IteratorSource, QoEMonitor
from repro.cluster import FanInSink, FlowShardRouter
from repro.cluster.fanin import flow_sort_key
from repro.cluster.worker import shard_worker_main
from repro.core.pipeline import PipelineEstimate, QoEPipeline
from repro.core.streaming import StreamEstimate, StreamingQoEPipeline
from repro.net.block import PacketBlock
from repro.net.flows import FlowKey, five_tuple
from repro.net.packet import IPv4Header, Packet, UDPHeader
from repro.sinks.base import CollectorSink


def make_packet(
    timestamp=0.0, src="10.1.0.1", src_port=4000, dst="10.2.0.2", dst_port=5000, size=1000
):
    return Packet(
        timestamp=timestamp,
        ip=IPv4Header(src=src, dst=dst),
        udp=UDPHeader(src_port=src_port, dst_port=dst_port),
        payload_size=size,
    )


def video_flow(dst_port: int, start_s: float, end_s: float) -> list[Packet]:
    """A 25-fps flow, three packets a frame, frame sizes that mark the boundaries."""
    packets = []
    for frame in range(round((end_s - start_s) / 0.04)):
        t = start_s + frame * 0.04
        for i in range(3):
            packets.append(
                make_packet(timestamp=t + i * 0.0008, dst_port=dst_port, size=700 + 37 * (frame % 11))
            )
    return packets


def delivered(flows, online_at=()) -> list[Packet]:
    """Merge ``flows`` into the order a vantage point hands them over.

    ``online_at[i]`` models flow *i*'s capture tap coming up late: everything
    the flow sent before that instant is handed over in one burst at it, so
    the flow trails the newest packet by up to ``online_at[i] - first
    timestamp`` while staying in order itself.
    """
    keyed = []
    for i, flow in enumerate(flows):
        online = online_at[i] if i < len(online_at) else -math.inf
        keyed.extend((max(packet.timestamp, online), packet.timestamp, i, packet) for packet in flow)
    keyed.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in keyed]


def chunked(packets, chunk_size: int) -> list[PacketBlock]:
    return [
        PacketBlock.from_packets(packets[i : i + chunk_size])
        for i in range(0, len(packets), chunk_size)
    ]


HEURISTIC_PAYLOAD = json.dumps(QoEPipeline.for_vca("teams").to_payload())


def run_worker(
    payload: str, inbound, new_flow_slack_s=None, shard_id: int = 7, config=None, ring_handle=None
) -> list:
    """Everything ``shard_worker_main`` sends when run in-process over ``inbound``."""
    in_queue: queue.Queue = queue.Queue()
    out_queue: queue.Queue = queue.Queue()
    for message in inbound:
        in_queue.put(message)
    in_queue.put(("stop",))
    shard_worker_main(
        shard_id,
        payload,
        config.to_dict() if config is not None else None,
        new_flow_slack_s,
        in_queue,
        out_queue,
        ring_handle=ring_handle,
    )
    messages = []
    while not out_queue.empty():
        messages.append(out_queue.get_nowait())
    return messages


def worker_messages(payload: str, blocks, new_flow_slack_s=None, shard_id: int = 7, config=None) -> list:
    """The queue carrier: one ``("block", ...)`` message per routed sub-block."""
    inbound = [("block", block) for block in blocks]
    return run_worker(payload, inbound, new_flow_slack_s, shard_id, config)


class _StampingSink(CollectorSink):
    """Stamps every estimate with the stream clock at the moment it arrives."""

    def __init__(self) -> None:
        super().__init__()
        self.now = -math.inf
        self.stamps: list[float] = []

    def emit(self, item) -> None:
        super().emit(item)
        self.stamps.append(self.now)


def run_sharded_in_process(packets, n_shards: int, chunk_size: int, new_flow_slack_s=None):
    """Router -> one ``shard_worker_main`` per shard -> ``FanInSink``, single-threaded.

    On the queue path a worker answers every sub-block with exactly one
    ``progress`` message, so a shard's *i*-th message is its state after its
    *i*-th sub-block: replaying the messages in routed order reproduces the
    run in which every worker keeps up with the router, with no process and
    no clock.  Returns the sink; its ``stamps`` hold the newest timestamp
    routed when each estimate arrived.
    """
    router = FlowShardRouter(n_shards)
    routed: list[tuple[float, list[int]]] = []
    shard_blocks: list[list[PacketBlock]] = [[] for _ in range(n_shards)]
    newest = -math.inf
    for block in chunked(packets, chunk_size):
        newest = max(newest, float(block.timestamps.max()))
        parts = router.partition_block(block)
        for shard, sub_block in parts:
            shard_blocks[shard].append(sub_block)
        routed.append((newest, [shard for shard, _ in parts]))
    messages = [
        iter(worker_messages(HEURISTIC_PAYLOAD, blocks, new_flow_slack_s, shard_id=shard))
        for shard, blocks in enumerate(shard_blocks)
    ]
    sink = _StampingSink()
    fan_in = FanInSink(sink, n_shards=n_shards)
    for newest, shards in routed:
        sink.now = newest
        for shard in shards:
            kind, _, items, low_watermark, _ = next(messages[shard])
            assert kind == "progress"
            fan_in.accept(shard, items, low_watermark)
    for shard, remaining in enumerate(messages):
        kind, _, tail, _ = next(remaining)
        assert kind == "done"
        fan_in.accept(shard, tail)
        fan_in.finish(shard)
    fan_in.close()
    return sink


def as_rows(items):
    return [(item.flow, item.estimate) for item in items]


def single_process_rows(packets) -> list:
    """Per-packet ``QoEMonitor`` over the same packets, in fan-in contract order."""
    sink = CollectorSink()
    QoEMonitor(QoEPipeline.for_vca("teams"), IteratorSource(iter(packets)), sinks=sink).run()
    return as_rows(
        sorted(sink.items, key=lambda item: (item.estimate.window_start, flow_sort_key(item.flow)))
    )


def make_item(window_start: float, dst_port: int = 50000) -> StreamEstimate:
    flow = FlowKey(src="192.0.2.10", src_port=3478, dst="10.0.0.1", dst_port=dst_port)
    estimate = PipelineEstimate(
        window_start=window_start,
        frame_rate=25.0,
        bitrate_kbps=900.0,
        frame_jitter_ms=5.0,
        resolution=None,
        source="heuristic",
    )
    return StreamEstimate(flow=flow, estimate=estimate)


class TestFlowShardRouter:
    def test_same_flow_always_same_shard(self):
        router = FlowShardRouter(4)
        packets = [make_packet(timestamp=0.1 * i) for i in range(50)]
        shards = {router.shard_of(p) for p in packets}
        assert len(shards) == 1

    def test_both_directions_colocate(self):
        router = FlowShardRouter(8)
        forward = make_packet()
        backward = make_packet(src="10.2.0.2", src_port=5000, dst="10.1.0.1", dst_port=4000)
        assert five_tuple(forward) != five_tuple(backward)
        assert router.shard_of(forward) == router.shard_of(backward)

    def test_deterministic_across_router_instances(self):
        packets = [make_packet(dst_port=5000 + i) for i in range(64)]
        a = [FlowShardRouter(4).shard_of(p) for p in packets]
        b = [FlowShardRouter(4).shard_of(p) for p in packets]
        assert a == b

    def test_spreads_flows_across_shards(self):
        router = FlowShardRouter(4)
        shards = {router.shard_of(make_packet(dst_port=5000 + i)) for i in range(64)}
        assert shards == {0, 1, 2, 3}

    def test_single_shard_and_validation(self):
        router = FlowShardRouter(1)
        assert router.shard_of(make_packet()) == 0
        with pytest.raises(ValueError):
            FlowShardRouter(0)

    def test_shard_of_key_accepts_either_direction(self):
        router = FlowShardRouter(8)
        key = five_tuple(make_packet())
        assert router.shard_of_key(key) == router.shard_of_key(key.reversed())


class TestFanInSink:
    def test_releases_only_below_min_watermark(self):
        downstream = CollectorSink()
        fan_in = FanInSink(downstream, n_shards=2)
        fan_in.accept(0, [make_item(0.0), make_item(5.0)], low_watermark=6.0)
        # Shard 1 has said nothing: nothing may be released yet.
        assert len(downstream) == 0
        fan_in.accept(1, [make_item(1.0, dst_port=50001)], low_watermark=2.0)
        # min watermark is now 2.0: only windows strictly below it go out.
        assert [i.estimate.window_start for i in downstream.items] == [0.0, 1.0]
        # Shard 1 exhausted: shard 0's own bound (6.0) is the limit now.
        fan_in.finish(1)
        assert [i.estimate.window_start for i in downstream.items] == [0.0, 1.0, 5.0]
        fan_in.finish(0)
        assert fan_in.records_released == 3

    def test_merged_order_is_window_then_flow(self):
        downstream = CollectorSink()
        fan_in = FanInSink(downstream, n_shards=3)
        fan_in.accept(2, [make_item(1.0, dst_port=50002)])
        fan_in.accept(0, [make_item(0.0, dst_port=50009), make_item(1.0, dst_port=50009)])
        fan_in.accept(1, [make_item(1.0, dst_port=50001), make_item(2.0, dst_port=50001)])
        fan_in.close()
        keys = [(i.estimate.window_start, i.flow.dst_port) for i in downstream.items]
        assert keys == [(0.0, 50009), (1.0, 50001), (1.0, 50002), (1.0, 50009), (2.0, 50001)]

    def test_order_invariant_to_message_interleaving(self):
        batches = {
            0: [(0, [make_item(0.0)], 1.0), (0, [make_item(1.0), make_item(2.0)], 3.0)],
            1: [(1, [make_item(0.0, dst_port=50001)], 2.0), (1, [make_item(3.0, dst_port=50001)], 4.0)],
        }
        outputs = []
        for order in ([0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]):
            downstream = CollectorSink()
            fan_in = FanInSink(downstream, n_shards=2)
            pending = {shard: list(shard_batches) for shard, shard_batches in batches.items()}
            for shard in order:
                shard_id, items, watermark = pending[shard].pop(0)
                fan_in.accept(shard_id, items, watermark)
            fan_in.close()
            outputs.append([(i.estimate.window_start, i.flow.dst_port) for i in downstream.items])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_watermark_never_regresses(self):
        downstream = CollectorSink()
        fan_in = FanInSink(downstream, n_shards=1)
        fan_in.accept(0, [make_item(0.0)], low_watermark=5.0)
        assert len(downstream) == 1
        # A stale (lower) watermark must not re-open the released range.
        fan_in.accept(0, [], low_watermark=1.0)
        fan_in.accept(0, [make_item(4.0)], low_watermark=5.0)
        assert [i.estimate.window_start for i in downstream.items] == [0.0, 4.0]

    def test_plain_sink_compatibility(self):
        downstream = CollectorSink()
        with FanInSink(downstream) as fan_in:
            fan_in.emit(make_item(1.0))
            fan_in.emit(make_item(0.0))
        assert downstream.closed
        assert [i.estimate.window_start for i in downstream.items] == [0.0, 1.0]
        assert fan_in.records_released == 2

    def test_close_is_idempotent_and_guards_further_input(self):
        fan_in = FanInSink(n_shards=2)
        fan_in.close()
        fan_in.close()
        with pytest.raises(RuntimeError):
            fan_in.accept(0, [make_item(0.0)])
        with pytest.raises(ValueError):
            FanInSink(n_shards=0)
        with pytest.raises(ValueError):
            FanInSink(n_shards=2).accept(2, [])

    def test_accept_after_finish_raises(self):
        """A late batch for a finished shard would release immediately (its
        watermark is +inf) and could break the global ordering contract --
        the fan-in must refuse it loudly instead."""
        downstream = CollectorSink()
        fan_in = FanInSink(downstream, n_shards=2)
        fan_in.accept(0, [make_item(0.0)], low_watermark=1.0)
        fan_in.finish(0)
        with pytest.raises(RuntimeError, match="already finished"):
            fan_in.accept(0, [make_item(5.0)])
        # The violation was rejected before buffering: closing releases only
        # what legitimately arrived.
        fan_in.close()
        assert [i.estimate.window_start for i in downstream.items] == [0.0]

    def test_flow_sort_key_totally_orders_none_first(self):
        keys = [make_item(0.0, dst_port=50001).flow, None, make_item(0.0).flow]
        ordered = sorted(keys, key=flow_sort_key)
        assert ordered[0] is None


class TestRouterMigrationOverlay:
    """The epoch-aware overlay layered over the static CRC-32 map (PR 7)."""

    KEYS = [FlowKey("192.0.2.10", 3478, f"10.0.0.{i}", 50000 + i) for i in range(1, 5)]

    def test_unmigrated_flows_keep_their_pinned_assignments(self):
        """The PR 4 literal pins survive the overlay: a router with overrides
        still routes every *other* flow exactly as the static map does."""
        expected = {2: [0, 0, 1, 0], 4: [0, 2, 3, 2], 8: [4, 6, 7, 2]}
        for n_shards, assignment in expected.items():
            router = FlowShardRouter(n_shards)
            moved = self.KEYS[0]
            router.set_override(moved, (assignment[0] + 1) % n_shards)
            for key, static_shard in zip(self.KEYS[1:], assignment[1:]):
                assert router.shard_of_key(key) == static_shard
                assert router.shard_of_key(key.reversed()) == static_shard

    def test_override_moves_both_directions(self):
        router = FlowShardRouter(4)
        key = self.KEYS[0]
        base = router.shard_of_key(key)
        dst = (base + 1) % 4
        router.set_override(key, dst)
        assert router.shard_of_key(key) == dst
        assert router.shard_of_key(key.reversed()) == dst
        # The memoized base map is untouched -- only the overlay changed.
        assert router.base_shard_of_key(key) == base

    def test_override_applies_from_either_direction(self):
        router = FlowShardRouter(4)
        key = self.KEYS[1]
        dst = (router.shard_of_key(key) + 2) % 4
        router.set_override(key.reversed(), dst)
        assert router.shard_of_key(key) == dst

    def test_override_validates_shard_range(self):
        router = FlowShardRouter(2)
        with pytest.raises(ValueError, match="out of range"):
            router.set_override(self.KEYS[0], 2)
        with pytest.raises(ValueError, match="out of range"):
            router.set_override(self.KEYS[0], -1)

    def test_epochs_are_one_based_and_strictly_increasing(self):
        router = FlowShardRouter(2)
        assert router.epoch == 0
        assert [router.next_epoch() for _ in range(3)] == [1, 2, 3]

    def test_partition_block_honours_overrides(self):
        from repro.net.block import PacketBlock

        packets = [
            make_packet(timestamp=0.01 * i, dst="10.2.0.%d" % (i % 3 + 1), dst_port=5000 + i % 3)
            for i in range(30)
        ]
        block = PacketBlock.from_packets(packets)
        router = FlowShardRouter(2)
        moved = FlowKey("10.1.0.1", 4000, "10.2.0.1", 5000)
        dst = (router.shard_of_key(moved) + 1) % 2
        router.set_override(moved, dst)
        for shard, sub in router.partition_block(block):
            for packet in sub.to_packets():
                assert router.shard_of(packet) == shard


class TestFanInMigrationFences:
    """The release-threshold fences that bracket a live flow migration."""

    def test_fence_caps_the_release_threshold(self):
        downstream = CollectorSink()
        fan_in = FanInSink(downstream, n_shards=2)
        fan_in.add_fence("epoch-1", 1.0)
        # Both shards' watermarks pass 3.0, but the fence holds at 1.0.
        fan_in.accept(0, [make_item(0.0), make_item(2.0)], low_watermark=3.0)
        fan_in.accept(1, [make_item(1.0, dst_port=50001)], low_watermark=3.0)
        assert [i.estimate.window_start for i in downstream.items] == [0.0]
        fan_in.clear_fence("epoch-1")
        assert [i.estimate.window_start for i in downstream.items] == [0.0, 1.0, 2.0]

    def test_lowest_of_several_fences_wins(self):
        downstream = CollectorSink()
        fan_in = FanInSink(downstream, n_shards=1)
        fan_in.add_fence("a", 2.0)
        fan_in.add_fence("b", 4.0)
        fan_in.accept(0, [make_item(1.0), make_item(3.0), make_item(5.0)], low_watermark=9.0)
        assert [i.estimate.window_start for i in downstream.items] == [1.0]
        fan_in.clear_fence("a")
        assert [i.estimate.window_start for i in downstream.items] == [1.0, 3.0]
        fan_in.clear_fence("b")
        assert [i.estimate.window_start for i in downstream.items] == [1.0, 3.0, 5.0]

    def test_clear_unknown_fence_is_a_noop(self):
        fan_in = FanInSink(n_shards=1)
        fan_in.clear_fence("never-installed")  # must not raise or release

    def test_rebase_is_the_sanctioned_regression(self):
        downstream = CollectorSink()
        fan_in = FanInSink(downstream, n_shards=2)
        fan_in.add_fence("epoch-1", 1.0)
        fan_in.accept(0, [], low_watermark=6.0)  # stale-high destination bound
        fan_in.accept(1, [], low_watermark=6.0)
        # Post-restore the destination's genuine bound is lower; install it
        # verbatim, then lift the fence -- the standard migration sequence.
        fan_in.rebase_watermark(0, 2.0)
        fan_in.clear_fence("epoch-1")
        fan_in.accept(0, [make_item(1.5)], low_watermark=2.0)
        # 1.5 < 2.0 == min watermark: released; nothing above it was.
        assert [i.estimate.window_start for i in downstream.items] == [1.5]

    def test_rebase_skips_finished_shards(self):
        fan_in = FanInSink(CollectorSink(), n_shards=2)
        fan_in.finish(0)
        fan_in.rebase_watermark(0, 1.0)  # must not reopen a finished shard
        fan_in.accept(1, [make_item(5.0, dst_port=50001)], low_watermark=9.0)
        assert fan_in.records_released == 1

    def test_close_drops_standing_fences(self):
        downstream = CollectorSink()
        fan_in = FanInSink(downstream, n_shards=1)
        fan_in.add_fence("epoch-1", 0.0)
        fan_in.accept(0, [make_item(3.0)], low_watermark=9.0)
        assert len(downstream) == 0
        fan_in.close()
        assert [i.estimate.window_start for i in downstream.items] == [3.0]

    def test_add_fence_after_close_raises(self):
        fan_in = FanInSink(n_shards=1)
        fan_in.close()
        with pytest.raises(RuntimeError, match="closed"):
            fan_in.add_fence("late", 1.0)


class TestShardWorkerLoop:
    """The worker entry point run in-process with plain queues."""

    def test_worker_emits_progress_then_done_with_stats(self, single_flow_packets):
        packets = single_flow_packets
        messages = worker_messages(HEURISTIC_PAYLOAD, chunked(packets, 100))
        kinds = [message[0] for message in messages]
        assert kinds.count("done") == 1 and kinds[-1] == "done"
        assert all(kind == "progress" for kind in kinds[:-1])
        _, shard_id, tail, stats = messages[-1]
        assert shard_id == 7
        assert stats["n_packets"] == len(packets)
        assert stats["n_flows"] == 1
        emitted = [item for message in messages[:-1] for item in message[2]] + tail
        assert len(emitted) >= 3  # one per closed window
        # Progress watermarks are monotone and honoured by every later batch.
        watermark = float("-inf")
        for message in messages[:-1]:
            if message[3] is not None:
                assert message[3] >= watermark
                watermark = message[3]

    def test_worker_reports_errors_instead_of_dying_silently(self):
        messages = worker_messages("{\"format\": \"bogus\"}", [])
        assert len(messages) == 1
        kind, shard_id, trace = messages[0]
        assert kind == "error" and shard_id == 7
        assert "not a saved QoE pipeline" in trace

    # -- the fan-in slack: measured by default, verbatim when declared ---------

    @staticmethod
    def _reference_watermarks(blocks, new_flow_slack_s=None) -> list:
        """``low_watermark`` of an in-process engine after each of ``blocks``."""
        engine = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
        watermarks = []
        for block in blocks:
            engine.push_block(block)
            watermarks.append(engine.low_watermark(new_flow_slack_s))
        return watermarks

    def test_sorted_source_watermark_is_the_live_flow_bound(self):
        """Nothing has arrived out of order, so nothing is held back for it:
        every watermark is the minimum ``next_window_start`` over the live
        flows -- not two windows behind the newest packet."""
        blocks = chunked(delivered([video_flow(5000 + i, 0.0, 6.0) for i in range(4)]), 64)
        messages = worker_messages(HEURISTIC_PAYLOAD, blocks)
        reported = [message[3] for message in messages[:-1]]
        assert reported == self._reference_watermarks(blocks)
        assert reported[-1] == 5.0  # the window every flow is still in

    def test_declared_slack_is_the_fixed_bound_verbatim(self):
        blocks = chunked(delivered([video_flow(5000 + i, 0.0, 6.0) for i in range(4)]), 64)
        messages = worker_messages(HEURISTIC_PAYLOAD, blocks, new_flow_slack_s=1.5)
        reported = [message[3] for message in messages[:-1]]
        assert reported == self._reference_watermarks(blocks, new_flow_slack_s=1.5)
        # window_index(newest - 1.5): never closer than a window and a half.
        assert reported[-1] == 4.0

    def test_regressing_chunk_widens_the_slack_and_reports_stay_monotone(self):
        """A new flow joins 0.7 s behind the newest packet.  Its own windows
        sit below what was already reported -- the first occurrence is not
        protected -- but the reported sequence never steps back, and from
        then on no watermark advances without leaving those 0.7 s."""
        first = video_flow(5000, 0.0, 6.0)
        late = video_flow(5001, 1.8, 6.0)
        packets = delivered([first, late], online_at=[-math.inf, 2.5])
        blocks = chunked(packets, 32)
        messages = worker_messages(HEURISTIC_PAYLOAD, blocks)
        reported = [message[3] for message in messages[:-1]]
        assert all(b >= a for a, b in zip(reported, reported[1:]))
        first_late = next(i for i, p in enumerate(packets) if p.udp.dst_port == 5001)
        disorder = max(p.timestamp for p in packets[:first_late]) - packets[first_late].timestamp
        assert disorder == pytest.approx(0.7, abs=0.04)
        joined = first_late // 32
        # The clamp is exercised: the late flow's first window is below the
        # watermark reported before it appeared.
        assert reported[joined - 1] == 2.0
        assert self._reference_watermarks(blocks[: joined + 1])[-1] == 1.0
        assert reported[joined] == 2.0
        newest = -math.inf
        for i, block in enumerate(blocks):
            newest = max(newest, float(block.timestamps.max()))
            if i > joined and reported[i] > reported[joined]:
                assert reported[i] <= math.floor(newest - disorder)
        assert reported[-1] == 5.0  # still advancing: floor(6.0 - 0.7)


def two_tap_trace(n_shards: int):
    """Flows of an on-time tap and of one that came up 0.8 s late, on every
    shard, plus a flow that joins mid-run 0.75 s behind the newest packet --
    its first packet in window 3 while the stream is already in window 4."""
    router = FlowShardRouter(n_shards)
    ports: dict[int, list[int]] = {shard: [] for shard in range(n_shards)}
    for port in range(5000, 5064):
        shard = router.shard_of_key(FlowKey("10.1.0.1", 4000, "10.2.0.2", port))
        if len(ports[shard]) < 3:
            ports[shard].append(port)
    assert all(len(found) == 3 for found in ports.values())
    flows, online_at = [], []
    for _, on_time, late_tap in ports.values():
        flows += [video_flow(on_time, 0.0, 6.0), video_flow(late_tap, 0.0, 6.0)]
        online_at += [-math.inf, 0.8]
    # The joiner's key sorts ahead of its shard's other flows, so releasing
    # their window 3 before its own is visible in the output order.
    flows.append(video_flow(ports[0][0], 3.5, 6.0))
    online_at.append(4.25)
    return delivered(flows, online_at)


class TestMeasuredSlackThroughTheFanIn:
    """Router -> worker loops -> a real ``FanInSink`` over a disordered source."""

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_disorder_seen_before_keeps_a_late_joiner_in_order(self, n_shards):
        packets = two_tap_trace(n_shards)
        expected = single_process_rows(packets)
        sink = run_sharded_in_process(packets, n_shards, chunk_size=64)
        assert as_rows(sink.items) == expected
        # The same trace under a declared bound it violates: every estimate
        # still arrives exactly once, only the late joiner's order degrades.
        violated = as_rows(
            run_sharded_in_process(packets, n_shards, chunk_size=64, new_flow_slack_s=0.0).items
        )
        assert violated != expected
        assert sorted(violated, key=repr) == sorted(expected, key=repr)


class _FakeSlotRing:
    """The worker's side of a forward ring, over plain bytearrays.

    ``slots`` is what the parent packed: per slot, the flat-encoded routed
    sub-blocks that shared it.  ``release`` recycles the slot the hard way:
    it empties the buffers, which a ``bytearray`` refuses (``BufferError``)
    while anything decoded from it -- a block, a column, a slice of one -- is
    still alive, so a view that outlives its slot fails the run even if
    nobody reads it, and a late read would find nothing.
    """

    def __init__(self, slots: list[list[PacketBlock]]) -> None:
        self._slots = [[self._encoded(block) for block in slot] for slot in slots]
        self._popped: list[memoryview] = []
        self.released = 0

    @staticmethod
    def _encoded(block: PacketBlock) -> bytearray:
        buffer = bytearray(block.byte_size())
        block.write_into(buffer)
        return buffer

    def attach(self) -> "_FakeSlotRing":
        return self

    def pop_segments(self, timeout=None) -> list[memoryview]:
        assert not self._popped, "previous slot not released"
        self._popped = [memoryview(buffer) for buffer in self._slots[self.released]]
        return list(self._popped)

    def release(self) -> None:
        for view in self._popped:
            view.release()
        self._popped = []
        for buffer in self._slots[self.released]:
            buffer.clear()
        self.released += 1

    def close(self) -> None:
        pass


def slot_worker_messages(payload: str, blocks, per_slot: int | None, config=None) -> list:
    """The shm carrier over a fake forward ring.

    The routed sequence ``blocks`` is delivered ``per_slot`` sub-blocks to a
    slot (``None``: all of it in one); estimates come back over the queue, one
    ``progress`` message per slot.
    """
    per_slot = per_slot or max(len(blocks), 1)
    slots = [blocks[i : i + per_slot] for i in range(0, len(blocks), per_slot)]
    ring = _FakeSlotRing(slots)
    messages = run_worker(payload, [("shm",)] * len(slots), config=config, ring_handle=ring)
    assert ring.released == len(slots)
    return messages


class TestSlotGroupingInvariance:
    """A popped slot is one tick, and nothing but the tick count shows it:
    output is a function of the routed sub-block sequence, never of how the
    forward link happened to cut that sequence into slots."""

    GROUPINGS = (1, 3, None)

    @staticmethod
    def _outcome(messages) -> dict:
        kinds = [message[0] for message in messages]
        assert kinds[-1] == "done" and set(kinds[:-1]) <= {"progress"}, messages[-1]
        _, _, tail, stats = messages[-1]
        watermarks = [message[3] for message in messages[:-1] if message[3] is not None]
        assert all(b >= a for a, b in zip(watermarks, watermarks[1:]))
        stats = dict(stats)
        return {
            "rows": as_rows([item for message in messages[:-1] for item in message[2]] + tail),
            "final_watermark": watermarks[-1],
            "ticks": stats.pop("ticks"),
            "stats": stats,
        }

    def _assert_invariant(self, payload: str, blocks, config=None) -> dict:
        outcomes = [
            self._outcome(slot_worker_messages(payload, blocks, per_slot, config))
            for per_slot in self.GROUPINGS
        ]
        alone, together = outcomes[0], outcomes[-1]
        for outcome in outcomes[1:]:
            assert outcome["rows"] == alone["rows"]
            assert outcome["final_watermark"] == alone["final_watermark"]
            assert outcome["stats"] == alone["stats"]
        assert alone["stats"]["sub_blocks"] == alone["ticks"] == len(blocks)
        assert 1 <= together["ticks"] <= len(blocks)
        assert len(alone["rows"]) > 0
        # The queue carrier is the one-sub-block-per-message grouping.
        queued = self._outcome(worker_messages(payload, blocks, config=config))
        assert queued == alone
        return together

    def test_sorted_trace_heuristic(self):
        blocks = chunked(delivered([video_flow(5000 + i, 0.0, 6.0) for i in range(4)]), 64)
        together = self._assert_invariant(HEURISTIC_PAYLOAD, blocks)
        assert together["ticks"] == 1
        assert together["final_watermark"] == 5.0

    def test_sorted_trace_trained(self, trained_pipeline):
        payload = json.dumps(trained_pipeline.to_payload())
        blocks = chunked(delivered([video_flow(5000 + i, 0.0, 6.0) for i in range(4)]), 64)
        together = self._assert_invariant(payload, blocks)
        assert together["ticks"] == 1
        assert all(estimate.source == "ml" for _, estimate in together["rows"])

    def test_cross_flow_disorder_measures_the_same_slack(self):
        """A tap that comes up late hands over its backlog at the head of a
        sub-block, so nothing *inside* any sub-block is out of order: the
        disorder shows only against the newest timestamp carried across
        sub-blocks -- across messages when each rides alone, across the
        segments of one slot when they ride together."""
        flows = [video_flow(5000, 0.0, 6.0), video_flow(5001, 0.0, 6.0)]
        packets = delivered(flows, online_at=[-math.inf, 0.8])
        backlog = next(i for i, p in enumerate(packets) if p.udp.dst_port == 5001)
        # Stop mid-window, where the slack decides the watermark: both flows
        # are in window 5, a flow 0.76 s behind could still open window 4.
        end = next(i for i, p in enumerate(packets) if p.timestamp >= 5.4)
        blocks = chunked(packets[:backlog], 64) + chunked(packets[backlog:end], 64)
        for block in blocks:
            assert (block.timestamps[1:] >= block.timestamps[:-1]).all()
        together = self._assert_invariant(HEURISTIC_PAYLOAD, blocks)
        slack = max(p.timestamp for p in packets[:backlog]) - packets[backlog].timestamp
        assert slack == pytest.approx(0.76, abs=0.01)
        engine = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
        for block in blocks:
            engine.push_block(block)
        assert together["final_watermark"] == engine.low_watermark(slack) == 4.0
        assert engine.low_watermark(0.0) == 5.0

    def test_idle_sweeps_cut_the_tick_where_they_fall_due(self):
        """With ``idle_timeout_s`` set the sweep's position in the sequence is
        output: a flow that pauses is evicted and re-enters as a fresh flow
        only if the sweep ran during the pause.  A slot-sized tick is cut at
        every sweep, so the same flows are evicted after the same sub-blocks."""
        flows = [
            video_flow(5000, 0.0, 8.0),
            video_flow(5001, 0.0, 1.5) + video_flow(5001, 5.0, 8.0),  # pauses, resumes
            video_flow(5002, 0.3, 2.2),  # goes idle for good
        ]
        blocks = chunked(delivered(flows), 64)
        config = QoEPipeline.for_vca("teams").config.replace(idle_timeout_s=1.0)
        together = self._assert_invariant(HEURISTIC_PAYLOAD, blocks, config)
        assert together["stats"]["n_evicted_flows"] == 2
        assert together["stats"]["n_flows"] == 3
        # One slot, but several ticks: one cut per sweep that fell due.
        assert 1 < together["ticks"] < len(blocks)
        # The sweeps are visible in the output of this trace: a run without
        # them keeps the paused flow alive across its gap.
        unswept = self._outcome(slot_worker_messages(HEURISTIC_PAYLOAD, blocks, None))
        assert unswept["rows"] != together["rows"]


class TestStreamTimeLagBound:
    """ROADMAP item 6's tier-1 clause: estimates arrive within a window of
    their window's end -- in stream time, so the verdict never depends on how
    fast the host ran."""

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_complete_windows_reach_the_sink_within_one_window(self, many_flow_packets, n_shards):
        window_s = QoEPipeline.for_vca("teams").config.window_s
        sink = run_sharded_in_process(many_flow_packets, n_shards, chunk_size=64)
        assert as_rows(sink.items) == single_process_rows(many_flow_packets)
        last_ts = many_flow_packets[-1].timestamp
        lags = [
            now - (item.estimate.window_start + window_s)
            for item, now in zip(sink.items, sink.stamps)
            if item.estimate.window_start + window_s <= last_ts
        ]
        assert len(lags) >= 4 * 6  # four flows, at least six complete windows each
        assert min(lags) >= 0.0
        assert max(lags) <= window_s


class TestRouterMemoizationAndBlocks:
    """The per-flow shard memo and the columnar partition path."""

    def test_assignment_pinned_and_unchanged_by_memoization(self):
        """The memoized lookup returns exactly the uncached CRC-32 result.

        The literal expectations pin the byte encoding itself: a change to
        the hash or the canonical form would silently re-home every flow of
        every deployed shard layout.
        """
        keys = [
            FlowKey("192.0.2.10", 3478, f"10.0.0.{i}", 50000 + i) for i in range(1, 5)
        ]
        expected = {2: [0, 0, 1, 0], 4: [0, 2, 3, 2], 8: [4, 6, 7, 2]}
        for n_shards, assignment in expected.items():
            router = FlowShardRouter(n_shards)
            assert [router.shard_of_key(key) for key in keys] == assignment
            # Cached answers == uncached recomputation, for both directions.
            for key in keys:
                assert router.shard_of_key(key) == router._shard_of_key(key)
                assert router.shard_of_key(key.reversed()) == router._shard_of_key(key)

    def test_memo_hits_after_first_lookup(self):
        router = FlowShardRouter(4)
        packets = [make_packet(timestamp=0.01 * i, dst_port=5000 + i % 3) for i in range(30)]
        for packet in packets:
            router.shard_of(packet)
        info = router.base_shard_of_key.cache_info()
        assert info.misses == 3  # one CRC per unique flow
        assert info.hits == 27  # every other packet is a dict hit

    def test_partition_block_matches_per_packet_routing(self):
        from repro.net.block import PacketBlock

        packets = [
            make_packet(timestamp=0.01 * i, dst="10.2.0.%d" % (i % 5 + 1), dst_port=5000 + i % 5)
            for i in range(100)
        ]
        block = PacketBlock.from_packets(packets)
        for n_shards in (1, 2, 4):
            router = FlowShardRouter(n_shards)
            parts = dict(router.partition_block(block))
            # Every packet lands on exactly the shard per-packet routing picks.
            seen = 0
            for shard, sub in parts.items():
                assert not sub.has_packet_cache  # wire-bound: arrays only
                for packet in sub.to_packets():
                    assert router.shard_of(packet) == shard
                    seen += 1
                # Arrival order is preserved within the shard.
                assert list(sub.timestamps) == sorted(sub.timestamps)
            assert seen == len(packets)

    def test_partition_block_empty(self):
        from repro.net.block import PacketBlock

        assert FlowShardRouter(4).partition_block(PacketBlock.from_packets([])) == []

    def test_partitioned_chunks_do_not_ship_capture_wide_tables(self):
        """A chunk sliced from a whole-capture block must compact its side
        tables before crossing the wire: one message must not carry every
        flow the capture ever saw."""
        from repro.net.block import PacketBlock

        packets = [
            make_packet(timestamp=0.001 * i, dst=f"10.2.{i % 40}.1", dst_port=5000 + i % 40)
            for i in range(400)
        ]
        capture = PacketBlock.from_packets(packets)
        assert len(capture.flows) == 40
        chunk = capture[0:10]  # 10 packets, 10 distinct flows of the 40
        router = FlowShardRouter(4)
        for shard, sub in router.partition_block(chunk):
            assert len(sub.flows) <= 10
            assert len(sub.addresses) <= 11
            for packet in sub.to_packets():
                assert router.shard_of(packet) == shard
