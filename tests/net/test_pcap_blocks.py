"""The array pcap decoder against the per-record oracle (behaviour only).

``PcapReader.read_blocks`` (slab reads, strided gathers, one validity mask)
must equal what ``PacketBlock.from_packets`` builds from ``PcapReader.__iter__``
-- values, dtypes, side-table order, block boundaries -- and must fail the way
the per-record reader fails: same blocks first, same error text.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.monitor import QoEMonitor
from repro.net import pcap as pcap_module
from repro.net.block import PacketBlock
from repro.net.headers import encode_ethernet_ipv4_udp, ipv4_checksum
from repro.net.packet import IPv4Header, Packet, UDPHeader
from repro.net.pcap import PcapReader, write_pcap
from repro.rtp.header import RTPHeader
from repro.sinks import CollectorSink
from repro.sources import PcapSource

COLUMNS = (
    "timestamps", "sizes", "src_codes", "dst_codes", "src_ports", "dst_ports",
    "protocols", "ttls", "total_lengths", "udp_lengths", "flow_codes",
)  # fmt: skip
CHUNK_SIZES = (1, 7, 1024, 10_000)
GLOBAL_HEADER_LEN = 24


def pcap_bytes(records, endian="<", magic=0xA1B2C3D4, link_type=1):
    """A capture from ``(seconds, fraction, frame, orig_len)`` tuples."""
    out = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, link_type)]
    for seconds, fraction, frame, orig_len in records:
        out.append(struct.pack(endian + "IIII", seconds, fraction, len(frame), orig_len))
        out.append(frame)
    return b"".join(out)


def udp_frame(src, dst, src_port, dst_port, payload, ttl=64, ip_options=b"", udp_length=None):
    """An Ethernet/IPv4/UDP frame; optionally with IP options or a lying UDP length."""
    frame = bytearray(
        encode_ethernet_ipv4_udp(
            IPv4Header(src=src, dst=dst, ttl=ttl), UDPHeader(src_port=src_port, dst_port=dst_port), payload
        )
    )
    if ip_options:
        assert len(ip_options) % 4 == 0
        frame[14] = (4 << 4) | (5 + len(ip_options) // 4)
        frame[34:34] = ip_options
        frame[16:18] = struct.pack("!H", 20 + len(ip_options) + 8 + len(payload))
        frame[24:26] = b"\x00\x00"
        frame[24:26] = struct.pack("!H", ipv4_checksum(bytes(frame[14 : 34 + len(ip_options)])))
    if udp_length is not None:
        offset = 14 + 20 + len(ip_options) + 4
        frame[offset : offset + 2] = struct.pack("!H", udp_length)
    return bytes(frame)


def corpus(seed=5, n=160):
    """Interleaved bidirectional flows with every kind of skipped record between them."""
    rng = np.random.default_rng(seed)
    endpoints = [("192.0.2.10", 3478), ("10.0.0.1", 50000), ("10.0.0.2", 50002), ("198.51.100.7", 443)]
    records = []
    now = 1_700_000_000.0
    for i in range(n):
        now += float(rng.uniform(0.0001, 0.02))
        seconds, micros = int(now), int((now - int(now)) * 1e6)
        a, b = rng.choice(len(endpoints), size=2, replace=False)
        (src, src_port), (dst, dst_port) = endpoints[a], endpoints[b]
        size = int(rng.integers(0, 1200))
        if i % 3 == 0:
            rtp = RTPHeader(payload_type=96 + i % 20, sequence_number=i, timestamp=3000 * i, ssrc=7, marker=i % 5 == 0)
            payload = rtp.encode() + bytes(max(0, size - 12))
        elif i % 3 == 1:
            payload = bytes(size)  # first byte 0: RTP version 0
        else:
            payload = b"\x80" + bytes(min(size, 10))  # version 2 but shorter than an RTP header
        kind = i % 16
        if kind == 3:
            frame = udp_frame(src, dst, src_port, dst_port, payload, ip_options=b"\x01" * 8)
        elif kind == 5:
            frame = udp_frame(src, dst, src_port, dst_port, payload, udp_length=8 + len(payload) + 40)
        elif kind == 7:
            frame = udp_frame(src, dst, src_port, dst_port, payload, udp_length=8 + len(payload) // 2)
        elif kind == 9:
            frame = udp_frame(src, dst, src_port, dst_port, payload, udp_length=3)  # below the header itself
        else:
            frame = udp_frame(src, dst, src_port, dst_port, payload, ttl=int(rng.integers(1, 255)))
        records.append((seconds, micros, frame, len(frame)))
        # Records both decoders must skip, between the UDP ones.
        noise = i % 8
        plain = bytearray(udp_frame(src, dst, src_port, dst_port, b"x" * 20))
        if noise == 0:
            plain[12:14] = b"\x08\x06"  # ARP
        elif noise == 1:
            plain[12:14] = b"\x86\xdd"  # IPv6
        elif noise == 2:
            plain[23] = 6  # TCP
        elif noise == 3:
            plain = plain[:30]  # too short for Ethernet/IPv4/UDP
        elif noise == 4:
            plain[14] = (4 << 4) | 15  # IHL says 60 bytes: UDP header falls outside the capture
            plain = plain[:50]
        elif noise == 5:
            plain[14] = (4 << 4) | 2  # IHL below the minimum
        elif noise == 6:
            plain[14] = (6 << 4) | 5  # IPv4 ethertype, version 6
        else:
            continue
        records.append((seconds, micros, bytes(plain), len(plain)))
    return records


def oracle_blocks(path, chunk_size, parse_rtp=True, strict=True):
    """Blocks rebuilt from the per-record reader, and the error it ended on."""
    blocks, chunk, error = [], [], None
    try:
        for packet in PcapReader(path, parse_rtp=parse_rtp, strict=strict):
            chunk.append(packet)
            if len(chunk) == chunk_size:
                blocks.append(PacketBlock.from_packets(chunk, keep_packets=False))
                chunk = []
    except ValueError as exc:
        error = str(exc)
    else:
        if chunk:
            blocks.append(PacketBlock.from_packets(chunk, keep_packets=False))
    return blocks, error


def array_blocks(path, chunk_size, parse_rtp=True, strict=True):
    blocks, error = [], None
    try:
        for block in PcapReader(path, parse_rtp=parse_rtp, strict=strict).read_blocks(chunk_size):
            blocks.append(block)
    except ValueError as exc:
        error = str(exc)
    return blocks, error


def assert_blocks_equal(got, want):
    assert [len(b) for b in got] == [len(b) for b in want]
    for g, w in zip(got, want):
        for name in COLUMNS:
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype, name
            assert a.flags["C_CONTIGUOUS"], name
            assert a.tobytes() == b.tobytes(), name
        assert g.addresses == w.addresses
        assert g.flows == w.flows
        assert (g.rtp is None) == (w.rtp is None)
        if g.rtp is not None:
            assert g.rtp.dtype == object and list(g.rtp) == list(w.rtp)
        assert g.media_codes is None and g.frame_ids is None


@pytest.fixture()
def small_slabs(monkeypatch):
    """Shrink the slab below one record so records straddle every boundary."""
    monkeypatch.setattr(pcap_module, "_SLAB_BYTES", 300)


@pytest.mark.parametrize("parse_rtp", (True, False))
@pytest.mark.parametrize("endian", ("<", ">"))
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_blocks_equal_per_record_oracle(tmp_path, small_slabs, chunk_size, endian, parse_rtp):
    path = tmp_path / "corpus.pcap"
    path.write_bytes(pcap_bytes(corpus(), endian=endian))
    want, error = oracle_blocks(path, chunk_size, parse_rtp)
    assert error is None and sum(len(b) for b in want) == 160
    assert any(b.rtp is not None for b in want) == parse_rtp
    assert_blocks_equal(array_blocks(path, chunk_size, parse_rtp)[0], want)


def test_slab_size_is_not_observable(tmp_path, monkeypatch):
    path = tmp_path / "corpus.pcap"
    path.write_bytes(pcap_bytes(corpus()))
    want, _ = array_blocks(path, 7)  # the shipped constant: the whole file is one slab
    for slab in (17, 64, 1000, 5000):
        monkeypatch.setattr(pcap_module, "_SLAB_BYTES", slab)
        assert_blocks_equal(array_blocks(path, 7)[0], want)


@pytest.mark.parametrize("strict", (True, False))
def test_truncation_matches_per_record_reader_at_every_cut(tmp_path, small_slabs, strict):
    records = corpus(n=24)
    data = pcap_bytes(records)
    last_two = sum(16 + len(frame) for _, _, frame, _ in records[-2:])
    path = tmp_path / "cut.pcap"
    errors = set()
    for cut in range(len(data) - last_two, len(data)):
        path.write_bytes(data[:cut])
        for chunk_size in (4, 10_000):
            want, want_error = oracle_blocks(path, chunk_size, strict=strict)
            got, got_error = array_blocks(path, chunk_size, strict=strict)
            assert got_error == want_error, cut
            assert_blocks_equal(got, want)
            errors.add(want_error and want_error.split(": ", 1)[1])
    expected = {None, "truncated record header", "truncated packet record"} if strict else {None}
    assert errors == expected


def test_empty_and_udp_free_captures_yield_nothing(tmp_path):
    path = tmp_path / "empty.pcap"
    path.write_bytes(pcap_bytes([]))
    assert list(PcapReader(path).read_blocks(8)) == []
    arp = bytearray(udp_frame("1.1.1.1", "2.2.2.2", 1, 2, b"abc"))
    arp[12:14] = b"\x08\x06"
    path.write_bytes(pcap_bytes([(1, 0, bytes(arp), len(arp))] * 3))
    assert list(PcapReader(path).read_blocks(8)) == []
    with pytest.raises(ValueError, match="chunk_size"):
        list(PcapReader(path).read_blocks(0))


# -- snaplen: sizes come from header fields and orig_len, not captured bytes ---


def video_call_packets(n=1500):
    """Two flows of ~1 kB 'video' packets, 25 three-packet frames per second."""
    rng = np.random.default_rng(9)
    packets = []
    for i in range(n):
        frame_no, flow = divmod(i // 3, 2)
        packets.append(
            Packet(
                timestamp=frame_no * 0.04 + (i % 3) * 0.0005 + flow * 0.011,
                ip=IPv4Header(src=f"192.0.2.{10 + flow}", dst="10.0.0.1"),
                udp=UDPHeader(src_port=3478, dst_port=50000 + flow),
                payload_size=900 + int(rng.integers(0, 200)) if i % 3 == 0 else 1100,
            )
        )
    return sorted(packets, key=lambda p: p.timestamp)


def snap(data: bytes, snaplen: int) -> bytes:
    """Rewrite a little-endian capture as ``tcpdump -s snaplen`` would have taken it."""
    out = [data[:GLOBAL_HEADER_LEN]]
    offset = GLOBAL_HEADER_LEN
    while offset < len(data):
        seconds, fraction, caplen, orig_len = struct.unpack_from("<IIII", data, offset)
        kept = min(caplen, snaplen)
        out.append(struct.pack("<IIII", seconds, fraction, kept, orig_len))
        out.append(data[offset + 16 : offset + 16 + kept])
        offset += 16 + caplen
    return b"".join(out)


def test_snap_truncated_capture_reports_full_capture_sizes(tmp_path):
    full, snapped = tmp_path / "full.pcap", tmp_path / "snap64.pcap"
    packets = video_call_packets()
    write_pcap(full, packets)
    snapped.write_bytes(snap(full.read_bytes(), 64))
    assert snapped.stat().st_size < full.stat().st_size / 10

    sizes = [p.payload_size for p in packets]
    assert [p.payload_size for p in PcapReader(snapped)] == sizes
    assert [p.payload_size for p in PcapReader(full)] == sizes
    full_blocks = list(PcapReader(full).read_blocks(256))
    assert_blocks_equal(list(PcapReader(snapped).read_blocks(256)), full_blocks)
    assert np.concatenate([b.sizes for b in full_blocks]).tolist() == sizes

    def estimates(path, block_size):
        sink = CollectorSink()
        QoEMonitor.for_vca("teams", PcapSource(path), sink, block_size=block_size).run()
        return sink.items

    want = estimates(full, None)
    assert len(want) > 10 and any(item.estimate.frame_rate > 0 for item in want)
    assert estimates(snapped, None) == want
    assert estimates(snapped, 256) == want


def test_orig_len_shorter_than_udp_length_caps_the_size(tmp_path):
    """A datagram the wire cut short (orig_len) is as long as the wire says."""
    frame = udp_frame("1.1.1.1", "2.2.2.2", 1, 2, bytes(100))
    path = tmp_path / "short.pcap"
    path.write_bytes(pcap_bytes([(1, 0, frame, len(frame) - 30), (2, 0, frame[:60], 20)]))
    assert [p.payload_size for p in PcapReader(path)] == [70, 0]
    assert PacketBlock.concat(list(PcapReader(path).read_blocks(8))).sizes.tolist() == [70, 0]


# -- global header: link type and timestamp resolution --------------------------


@pytest.mark.parametrize("strict", (True, False))
@pytest.mark.parametrize("link_type", (101, 113, 0))  # LINKTYPE_RAW, Linux cooked, BSD loopback
def test_non_ethernet_link_type_is_rejected_by_name(tmp_path, link_type, strict):
    frame = udp_frame("1.1.1.1", "2.2.2.2", 1, 2, b"abc")
    path = tmp_path / "cooked.pcap"
    path.write_bytes(pcap_bytes([(1, 0, frame, len(frame))], link_type=link_type))
    for read in (
        lambda: list(PcapReader(path, strict=strict)),
        lambda: list(PcapReader(path, strict=strict).read_blocks(4)),
    ):
        with pytest.raises(ValueError, match=f"link type {link_type}"):
            read()


@pytest.mark.parametrize("endian", ("<", ">"))
def test_nanosecond_magic_is_read_with_nanosecond_timestamps(tmp_path, endian):
    frame = udp_frame("1.1.1.1", "2.2.2.2", 1, 2, b"abc")
    path = tmp_path / "nano.pcap"
    path.write_bytes(
        pcap_bytes(
            [(5, 123_456_789, frame, len(frame)), (6, 1, frame, len(frame))],
            endian=endian,
            magic=0xA1B23C4D,
        )
    )
    want = [5 + 123_456_789 / 1e9, 6 + 1 / 1e9]
    assert [p.timestamp for p in PcapReader(path)] == want
    (block,) = PcapReader(path).read_blocks(4)
    assert block.timestamps.tolist() == want
