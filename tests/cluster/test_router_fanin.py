"""Unit tests for the sharding router, the fan-in merge, and the worker loop.

These cover the cluster's deterministic plumbing without process overhead;
the end-to-end multiprocess behaviour is pinned by
``test_sharded_monitor.py``.
"""

from __future__ import annotations

import json
import queue

import pytest

from repro.cluster import FanInSink, FlowShardRouter
from repro.cluster.fanin import flow_sort_key
from repro.cluster.worker import shard_worker_main
from repro.core.pipeline import PipelineEstimate, QoEPipeline
from repro.core.streaming import StreamEstimate
from repro.net.block import PacketBlock
from repro.net.flows import FlowKey, five_tuple
from repro.net.packet import IPv4Header, Packet, UDPHeader
from repro.sinks.base import CollectorSink


def make_packet(timestamp=0.0, src="10.1.0.1", src_port=4000, dst="10.2.0.2", dst_port=5000):
    return Packet(
        timestamp=timestamp,
        ip=IPv4Header(src=src, dst=dst),
        udp=UDPHeader(src_port=src_port, dst_port=dst_port),
        payload_size=1000,
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

    def _run_worker(self, payload: str, chunks, config_dict=None):
        in_queue: queue.Queue = queue.Queue()
        out_queue: queue.Queue = queue.Queue()
        for chunk in chunks:
            in_queue.put(("block", PacketBlock.from_packets(chunk)))
        in_queue.put(("stop",))
        shard_worker_main(7, payload, config_dict, None, in_queue, out_queue)
        messages = []
        while not out_queue.empty():
            messages.append(out_queue.get_nowait())
        return messages

    def test_worker_emits_progress_then_done_with_stats(self, single_flow_packets):
        packets = single_flow_packets
        payload = json.dumps(QoEPipeline.for_vca("teams").to_payload())
        chunks = [packets[i : i + 100] for i in range(0, len(packets), 100)]
        messages = self._run_worker(payload, chunks)
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
        messages = self._run_worker("{\"format\": \"bogus\"}", [])
        assert len(messages) == 1
        kind, shard_id, trace = messages[0]
        assert kind == "error" and shard_id == 7
        assert "not a saved QoE pipeline" in trace


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
