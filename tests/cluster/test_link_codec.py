"""The forward-link codec: a flow's key crosses a link once.

A :class:`~repro.net.block.LinkEncoder` codes each routed sub-block against
the table its :class:`~repro.net.block.LinkDecoder` holds, shipping only the
entries new to the link; the decoder hands every block between two resets
the same tables, which ``PacketBlock.concat`` joins without re-interning.
These tests pin the round trip (new flows mid-slot, empty deltas, resets),
the concat fast path, and end-to-end equivalence of the sharded monitor over
a trace whose flow set changes mid-run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CollectorSink, IteratorSource, QoEMonitor, QoEPipeline, ShardedQoEMonitor
from repro.cluster.fanin import flow_sort_key
from repro.cluster.router import FlowShardRouter
from repro.cluster.shm import shm_available
from repro.net.block import _CODEC_HEADER, _column_bytes, LinkDecoder, LinkEncoder, PacketBlock
from repro.net.flows import FlowKey
from repro.net.packet import IPv4Header, Packet, UDPHeader

_COLUMNS = (
    "timestamps", "sizes", "src_codes", "dst_codes", "src_ports", "dst_ports",
    "protocols", "ttls", "total_lengths", "udp_lengths", "flow_codes",
)
_CODES = {"src_codes": "addresses", "dst_codes": "addresses", "flow_codes": "flows"}


def make_packet(timestamp: float, port: int, dst: str = "10.0.0.1") -> Packet:
    return Packet(
        timestamp=timestamp,
        ip=IPv4Header(src="192.0.2.10", dst=dst, ttl=60 + port % 7),
        udp=UDPHeader(src_port=3478, dst_port=port),
        payload_size=900 + port % 100,
    )


def block_of(ports, start: float = 0.0, dst_of=lambda port: "10.0.0.1") -> PacketBlock:
    return PacketBlock.from_packets(
        [make_packet(start + 0.001 * i, port, dst_of(port)) for i, port in enumerate(ports)],
        keep_packets=False,
    )


def assert_rows_equal(sent: PacketBlock, received: PacketBlock) -> None:
    """Column for column, and code columns by the key or address they name."""
    assert len(sent) == len(received)
    for name in _COLUMNS:
        left, right = getattr(sent, name), getattr(received, name)
        assert left.dtype.itemsize == right.dtype.itemsize, name
        if name in _CODES:
            table = _CODES[name]
            left = [getattr(sent, table)[code] for code in left.tolist()]
            right = [getattr(received, table)[code] for code in right.tolist()]
            assert left == right, name
        else:
            assert np.array_equal(left, right), name


def segments_of(encoder: LinkEncoder, blocks) -> list[bytearray]:
    out = []
    for block in blocks:
        size, write_into = encoder.encode(block)
        buffer = bytearray(size)
        assert write_into(memoryview(buffer)) == size
        out.append(buffer)
    return out


class TestLinkRoundTrip:
    def test_new_flow_mid_slot_empty_delta_and_reset(self):
        sent = [
            block_of([5000, 5001, 5000, 5001]),
            block_of([5001, 5002, 5000], start=1.0),  # 5002 is new mid-slot
            block_of([5000, 5000, 5002], start=2.0),  # nothing new: empty delta
            block_of([5003, 5000], start=3.0),  # the fourth flow fills the table
            block_of([5000, 5003, 5004], start=4.0),  # so this one resets it
        ]
        encoder = LinkEncoder(max_flows=4)
        segments = segments_of(encoder, sent)
        # The empty delta is the header and the columns, nothing else.
        assert len(segments[2]) == _CODEC_HEADER.size + _column_bytes(3)
        assert len(encoder) == 3  # 5000, 5003, 5004 after the restart
        decoder = LinkDecoder()
        first_slot = decoder.decode(segments[:3])
        assert len(decoder) == 3
        second_slot = decoder.decode(segments[3:])
        assert len(decoder) == 3
        for block, got in zip(sent, first_slot + second_slot):
            assert_rows_equal(block, got)
        # One table per run between resets, handed to every block of it.
        assert all(got.flows is first_slot[0].flows for got in first_slot)
        assert all(got.addresses is first_slot[0].addresses for got in first_slot)
        assert second_slot[0].flows is not second_slot[1].flows
        assert len(second_slot[0].flows) == 4
        assert second_slot[1].flows == (
            FlowKey("192.0.2.10", 3478, "10.0.0.1", 5000),
            FlowKey("192.0.2.10", 3478, "10.0.0.1", 5003),
            FlowKey("192.0.2.10", 3478, "10.0.0.1", 5004),
        )

    def test_reset_inside_one_slot(self):
        """Blocks on either side of a reset cannot share a table: the codes
        before it name the old one."""
        sent = [block_of([5000, 5001]), block_of([5002]), block_of([5001, 5000])]
        segments = segments_of(LinkEncoder(max_flows=2), sent)
        decoded = LinkDecoder().decode(segments)
        for block, got in zip(sent, decoded):
            assert_rows_equal(block, got)
        assert decoded[0].flows == (
            FlowKey("192.0.2.10", 3478, "10.0.0.1", 5000),
            FlowKey("192.0.2.10", 3478, "10.0.0.1", 5001),
        )
        assert decoded[1].flows is decoded[2].flows
        assert decoded[0].flows is not decoded[1].flows

    def test_routed_sub_blocks_of_a_capture_wide_block(self):
        """Chunks sliced from one capture share its 40-flow table; each link
        ships a flow's key once, whatever chunk it first appears in."""
        capture = block_of(
            [5000 + i % 40 for i in range(400)], dst_of=lambda port: f"10.2.{port % 40}.1"
        )
        router = FlowShardRouter(2)
        encoders = [LinkEncoder(), LinkEncoder()]
        decoders = [LinkDecoder(), LinkDecoder()]
        for start in range(0, 400, 25):
            for shard, sub in router.partition_block(capture[start : start + 25]):
                segments = segments_of(encoders[shard], [sub])
                (got,) = decoders[shard].decode(segments)
                assert_rows_equal(sub, got)
                for key in set(got.flows):
                    assert router.shard_of_key(key) == shard
        # Every flow, once, on the link of its shard.
        assert sorted(len(decoder) for decoder in decoders) != [0, 40]
        assert sum(len(decoder) for decoder in decoders) == 40

    def test_oversized_segment_is_not_committed(self):
        encoder = LinkEncoder()
        first = block_of([5000])
        block = block_of([5000, 5001])
        size, write_first = encoder.encode(first)
        twin = LinkEncoder()
        twin.encode(first)
        needed = twin.encode(block)[0]
        # One byte short: the segment (which ships 5001) is dropped.
        assert encoder.encode_within(block, needed - 1) is None
        assert len(encoder) == 1
        buffer = bytearray(size)
        write_first(memoryview(buffer))
        # The next committed segment still ships 5001, after the first one.
        segments = [buffer, *segments_of(encoder, [block])]
        _, got = LinkDecoder().decode(segments)
        assert_rows_equal(block, got)

    def test_self_contained_round_trip_and_header_checks(self):
        block = block_of([5000, 5001, 5000])
        decoded = PacketBlock.read_from(memoryview(_encoded(block)))
        assert_rows_equal(block, decoded)
        continued = segments_of(LinkEncoder(), [block, block])[1]
        with pytest.raises(ValueError, match="LinkDecoder"):
            PacketBlock.read_from(memoryview(continued))
        stale = _encoded(block)
        stale[4:6] = (2).to_bytes(2, "little")
        with pytest.raises(ValueError, match="version 2"):
            PacketBlock.read_from(memoryview(stale))
        with pytest.raises(ValueError, match="version 2"):
            LinkDecoder().decode([stale])


def _encoded(block: PacketBlock) -> bytearray:
    buffer = bytearray(block.byte_size())
    block.write_into(memoryview(buffer))
    return buffer


class TestConcatSharedTables:
    def test_fast_path_equals_reinterning(self):
        sent = [
            block_of([5000, 5001]),
            block_of([5002, 5000], start=1.0),
            block_of([5001, 5003, 5003], start=2.0),
        ]
        decoded = LinkDecoder().decode(segments_of(LinkEncoder(), sent))
        assert all(block.flows is decoded[0].flows for block in decoded)
        fast = PacketBlock.concat(decoded)
        # Equal but distinct table objects: the re-interning path.
        copies = [
            PacketBlock(
                **{name: getattr(block, name) for name in _COLUMNS},
                addresses=tuple(list(block.addresses)),
                flows=tuple(list(block.flows)),
            )
            for block in decoded
        ]
        slow = PacketBlock.concat(copies)
        assert fast.flows is decoded[0].flows and slow.flows is not decoded[0].flows
        assert fast.flows == slow.flows and fast.addresses == slow.addresses
        for name in _COLUMNS:
            assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
            assert getattr(fast, name).dtype == getattr(slow, name).dtype, name
        assert_rows_equal(PacketBlock.concat(sent), fast)


# -- end to end: flows that join late and one that idles out and returns ------


def video_flow(port: int, start_s: float, end_s: float, dst: str = "10.0.0.7") -> list[Packet]:
    """A 25-fps flow, three packets a frame, frame sizes that mark the boundaries."""
    packets = []
    for frame in range(round((end_s - start_s) / 0.04)):
        t = start_s + frame * 0.04
        for i in range(3):
            packet = make_packet(t + i * 0.0008, port, dst)
            packets.append(
                Packet(
                    timestamp=packet.timestamp,
                    ip=packet.ip,
                    udp=packet.udp,
                    payload_size=700 + 37 * (frame % 11),
                )
            )
    return packets


def changing_flow_set() -> tuple[list[Packet], float]:
    """Long flows on both shards of two, two that start late, and one that
    goes idle for longer than the timeout and then comes back."""
    router = FlowShardRouter(2)
    long_ports: dict[int, list[int]] = {0: [], 1: []}
    for port in range(50000, 50064):
        shard = router.shard_of_key(FlowKey("192.0.2.10", 3478, "10.0.0.7", port))
        if len(long_ports[shard]) < 2:
            long_ports[shard].append(port)
    on_time = [long_ports[0][0], long_ports[1][0]]
    late = [long_ports[0][1], long_ports[1][1]]
    flows = [video_flow(port, 0.0, 9.0) for port in on_time]
    flows += [video_flow(port, 4.0, 9.0) for port in late]
    # Idle from 2 s to 6 s, four times the timeout, then back.
    flows.append(video_flow(40000, 0.0, 2.0, dst="10.0.0.9") + video_flow(40000, 6.0, 9.0, dst="10.0.0.9"))
    packets = sorted((p for flow in flows for p in flow), key=lambda p: p.timestamp)
    return packets, 1.0


class TestChangingFlowSetEquivalence:
    @pytest.mark.parametrize("transport", ["block", "shm"])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_bit_identical_to_single_process(self, transport, n_workers):
        if transport == "shm" and not shm_available():
            pytest.skip("multiprocessing.shared_memory unavailable on this platform")
        packets, idle_timeout_s = changing_flow_set()
        pipeline = QoEPipeline.for_vca("teams")
        config = pipeline.config.replace(idle_timeout_s=idle_timeout_s)
        single = CollectorSink()
        single_report = QoEMonitor(
            pipeline, IteratorSource(iter(packets)), sinks=single, config=config
        ).run()
        assert single_report.n_evicted_flows >= 1
        expected = [
            (item.flow, item.estimate)
            for item in sorted(
                single.items,
                key=lambda item: (item.estimate.window_start, flow_sort_key(item.flow)),
            )
        ]
        sink = CollectorSink()
        report = ShardedQoEMonitor(
            pipeline,
            IteratorSource(iter(packets)),
            sinks=sink,
            config=config,
            n_workers=n_workers,
            chunk_size=64,
            transport=transport,
        ).run()
        assert [(item.flow, item.estimate) for item in sink.items] == expected
        assert report.n_evicted_flows == single_report.n_evicted_flows
