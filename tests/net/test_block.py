"""Unit tests for the columnar PacketBlock representation."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.net.block import PacketBlock, blocks_from_packets
from repro.net.flows import five_tuple
from repro.net.media import MediaType
from repro.net.packet import IPv4Header, Packet, UDPHeader
from repro.net.trace import PacketTrace
from repro.rtp.header import RTPHeader


def make_packet(
    timestamp=0.0,
    src="192.0.2.10",
    dst="10.0.0.1",
    src_port=3478,
    dst_port=50000,
    size=1000,
    rtp=None,
    media_type=None,
    frame_id=None,
    metadata=None,
):
    return Packet(
        timestamp=timestamp,
        ip=IPv4Header(src=src, dst=dst, ttl=60, total_length=size + 28),
        udp=UDPHeader(src_port=src_port, dst_port=dst_port, length=size + 8),
        payload_size=size,
        rtp=rtp,
        media_type=media_type,
        frame_id=frame_id,
        metadata=metadata or {},
    )


def interleaved_packets(n=60):
    packets = []
    for i in range(n):
        packets.append(
            make_packet(
                timestamp=0.01 * i,
                dst=f"10.0.0.{i % 3 + 1}",
                dst_port=50000 + i % 3,
                size=500 + i,
                media_type=MediaType.VIDEO if i % 2 else MediaType.AUDIO,
                frame_id=i // 4,
            )
        )
    return packets


class TestRoundTrip:
    def test_from_packets_to_packets_returns_originals_in_process(self):
        packets = interleaved_packets()
        packets[0].metadata["app_bytes"] = 123
        block = PacketBlock.from_packets(packets)
        assert block.has_packet_cache
        materialized = block.to_packets()
        assert materialized == packets
        assert materialized[0] is packets[0]  # the cache, not a copy
        assert materialized[0].metadata == {"app_bytes": 123}

    def test_reconstruction_after_pickle_preserves_header_fields(self):
        rtp = RTPHeader(payload_type=96, sequence_number=7, timestamp=90000, ssrc=1, marker=True)
        packets = interleaved_packets()
        packets[3] = make_packet(timestamp=0.03, rtp=rtp, media_type=MediaType.VIDEO, frame_id=2)
        wire = pickle.loads(pickle.dumps(PacketBlock.from_packets(packets)))
        assert not wire.has_packet_cache
        rebuilt = wire.to_packets()
        # Dataclass equality covers timestamp, headers, size, rtp, ground truth.
        assert rebuilt == packets
        assert rebuilt[3].rtp == rtp
        assert rebuilt[3].ip.ttl == 60 and rebuilt[3].udp.length == 1008

    def test_columns_and_codes(self):
        packets = interleaved_packets()
        block = PacketBlock.from_packets(packets)
        assert len(block) == len(packets)
        assert block.timestamps.dtype == np.float64
        np.testing.assert_array_equal(block.sizes, [p.payload_size for p in packets])
        for i, packet in enumerate(packets):
            assert block.addresses[block.src_codes[i]] == packet.ip.src
            assert block.addresses[block.dst_codes[i]] == packet.ip.dst
            assert block.flows[block.flow_codes[i]] == five_tuple(packet)

    def test_negative_frame_id_rejected(self):
        packet = Packet(
            timestamp=0.0,
            ip=IPv4Header(src="a", dst="b"),
            udp=UDPHeader(src_port=1, dst_port=2),
            payload_size=10,
            frame_id=-1,
        )
        with pytest.raises(ValueError, match="frame_id"):
            PacketBlock.from_packets([packet])


class TestSliceTakeConcat:
    def test_slice_shares_tables_and_preserves_rows(self):
        packets = interleaved_packets()
        block = PacketBlock.from_packets(packets)
        part = block[10:25]
        assert len(part) == 15
        assert part.flows is block.flows and part.addresses is block.addresses
        assert part.to_packets() == packets[10:25]

    def test_take_orders_rows_and_can_drop_cache(self):
        packets = interleaved_packets()
        block = PacketBlock.from_packets(packets)
        idx = np.array([5, 1, 30])
        sub = block.take(idx)
        assert sub.to_packets() == [packets[5], packets[1], packets[30]]
        assert not block.headers_only().take(idx).has_packet_cache

    def test_concat_reinterns_flows(self):
        a = PacketBlock.from_packets([make_packet(0.0, dst="10.0.0.1"), make_packet(0.1, dst="10.0.0.2")])
        b = PacketBlock.from_packets([make_packet(0.2, dst="10.0.0.2"), make_packet(0.3, dst="10.0.0.3")])
        merged = PacketBlock.concat([a, b])
        assert len(merged) == 4
        assert len(merged.flows) == 3  # 10.0.0.2 deduplicated
        assert merged.to_packets() == a.to_packets() + b.to_packets()
        for i, packet in enumerate(merged.to_packets()):
            assert merged.flows[merged.flow_codes[i]] == five_tuple(packet)

    def test_concat_mixed_optional_columns(self):
        plain = PacketBlock.from_packets([make_packet(0.0)])
        annotated = PacketBlock.from_packets(
            [make_packet(0.1, media_type=MediaType.VIDEO, frame_id=4)]
        )
        merged = pickle.loads(pickle.dumps(PacketBlock.concat([plain, annotated])))
        rebuilt = merged.to_packets()
        assert rebuilt[0].media_type is None and rebuilt[0].frame_id is None
        assert rebuilt[1].media_type is MediaType.VIDEO and rebuilt[1].frame_id == 4


def round_trip(block: PacketBlock) -> PacketBlock:
    buffer = bytearray(block.byte_size())
    block.write_into(memoryview(buffer))
    return PacketBlock.read_from(memoryview(buffer))


class TestSlicedBlocksOnTheWire:
    """A slice shares its parent's side tables; its encoding carries only
    the entries its own rows use."""

    def test_slice_encodes_only_the_entries_its_rows_use(self):
        packets = interleaved_packets(60)  # 3 flows interleaved round-robin
        part = PacketBlock.from_packets(packets).headers_only()[0:1]
        assert len(part.flows) == 3  # one packet, but the tables cover 3 flows
        decoded = round_trip(part)
        assert len(decoded.flows) == 1
        assert decoded.addresses == (packets[0].ip.src, packets[0].ip.dst)
        assert decoded.flows[decoded.flow_codes[0]] == five_tuple(packets[0])
        (row,) = decoded.to_packets()
        assert (row.timestamp, row.ip, row.udp, row.payload_size) == (
            packets[0].timestamp, packets[0].ip, packets[0].udp, packets[0].payload_size
        )

    def test_dense_block_keeps_its_tables_and_codes(self):
        block = PacketBlock.from_packets(interleaved_packets(12)).headers_only()
        decoded = round_trip(block)
        assert decoded.flows == block.flows and decoded.addresses == block.addresses
        for name in ("src_codes", "dst_codes", "flow_codes"):
            assert np.array_equal(getattr(decoded, name), getattr(block, name)), name

    def test_pickled_slice_keeps_optional_columns(self):
        packets = interleaved_packets(30)
        part = pickle.loads(pickle.dumps(PacketBlock.from_packets(packets)[10:20]))
        assert part.to_packets() == packets[10:20]


class TestHeadersOnly:
    def test_drops_cache_and_annotation_columns_and_shares_the_rest(self):
        packets = interleaved_packets()
        packets[3] = make_packet(
            timestamp=0.03,
            rtp=RTPHeader(payload_type=96, sequence_number=7, timestamp=90000, ssrc=1),
        )
        block = PacketBlock.from_packets(packets)
        assert block.rtp is not None and block.media_codes is not None
        assert block.frame_ids is not None and block.has_packet_cache
        stripped = block.headers_only()
        assert stripped.rtp is None and stripped.media_codes is None and stripped.frame_ids is None
        assert not stripped.has_packet_cache
        assert stripped.timestamps is block.timestamps and stripped.flows is block.flows
        assert stripped.to_packets() == [
            packet.without_rtp().without_ground_truth() for packet in packets
        ]

    def test_a_header_only_block_is_returned_as_is(self):
        block = pickle.loads(pickle.dumps(PacketBlock.from_packets([make_packet(0.0)])))
        assert block.headers_only() is block


class TestFlowGroups:
    def test_groups_cover_rows_in_first_appearance_order(self):
        packets = interleaved_packets()
        block = PacketBlock.from_packets(packets)
        groups = block.flow_groups()
        seen = []
        covered = np.zeros(len(block), dtype=bool)
        for code, idx in groups:
            assert np.all(np.diff(idx) > 0)  # arrival order within the flow
            assert np.all(block.flow_codes[idx] == code)
            covered[idx] = True
            seen.append(int(idx[0]))
        assert covered.all()
        assert seen == sorted(seen)  # first-appearance order

    def test_single_flow_fast_path(self):
        block = PacketBlock.from_packets([make_packet(0.01 * i) for i in range(10)])
        ((code, idx),) = block.flow_groups()
        assert code == 0
        np.testing.assert_array_equal(idx, np.arange(10))


class TestTraceBacking:
    def test_trace_block_is_cached_and_invalidated_on_mutation(self):
        trace = PacketTrace(interleaved_packets())
        block = trace.block
        assert trace.block is block
        trace.append(make_packet(timestamp=99.0))
        assert trace.block is not block
        assert len(trace.block) == len(trace)

    def test_time_slice_on_block_backed_trace_slices_arrays(self):
        packets = interleaved_packets()
        trace = PacketTrace.from_block(pickle.loads(pickle.dumps(PacketTrace(packets).block)))
        window = trace.time_slice(0.1, 0.3)
        assert [p.timestamp for p in window] == [
            p.timestamp for p in packets if 0.1 <= p.timestamp < 0.3
        ]
        # Equality with the list-backed slice, field for field.
        assert window.packets == PacketTrace(packets).time_slice(0.1, 0.3).packets

    def test_iter_windows_matches_between_backings(self):
        packets = interleaved_packets()
        list_backed = PacketTrace(packets)
        block_backed = PacketTrace.from_block(PacketTrace(packets).block)
        for (t1, w1), (t2, w2) in zip(
            list_backed.iter_windows(0.25), block_backed.iter_windows(0.25)
        ):
            assert t1 == t2
            assert w1.packets == w2.packets

    def test_stats_identical_between_backings(self):
        packets = interleaved_packets()
        assert PacketTrace(packets).stats() == PacketTrace.from_block(
            pickle.loads(pickle.dumps(PacketTrace(packets).block))
        ).stats()


class TestBlocksFromPackets:
    def test_chunking(self):
        packets = interleaved_packets(25)
        blocks = list(blocks_from_packets(iter(packets), 10))
        assert [len(b) for b in blocks] == [10, 10, 5]
        assert [p for b in blocks for p in b.to_packets()] == packets

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            list(blocks_from_packets([], 0))
