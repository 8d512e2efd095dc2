"""Unit tests for binary header codecs and pcap I/O."""

import numpy as np
import pytest

from repro.net.headers import (
    decode_ethernet_ipv4_udp,
    encode_ethernet_ipv4_udp,
    ipv4_checksum,
)
from repro.net.packet import IPv4Header, MediaType, Packet, UDPHeader
from repro.net.pcap import PcapReader, read_pcap, write_pcap
from repro.net.trace import PacketTrace
from repro.rtp.header import RTPHeader


class TestHeaderCodec:
    def test_round_trip(self):
        ip = IPv4Header(src="192.168.1.10", dst="10.0.0.1", ttl=52)
        udp = UDPHeader(src_port=3478, dst_port=50000)
        payload = b"\x01\x02\x03\x04" * 50
        frame = encode_ethernet_ipv4_udp(ip, udp, payload)
        ip2, udp2, payload2 = decode_ethernet_ipv4_udp(frame)
        assert ip2.src == ip.src and ip2.dst == ip.dst and ip2.ttl == 52
        assert udp2.src_port == 3478 and udp2.dst_port == 50000
        assert payload2 == payload

    def test_checksum_of_valid_header_is_zero_when_rechecked(self):
        ip = IPv4Header(src="1.2.3.4", dst="5.6.7.8")
        udp = UDPHeader(src_port=1, dst_port=2)
        frame = encode_ethernet_ipv4_udp(ip, udp, b"abc")
        ip_header = frame[14:34]
        assert ipv4_checksum(ip_header) == 0

    def test_truncated_frame_rejected(self):
        with pytest.raises(ValueError):
            decode_ethernet_ipv4_udp(b"\x00" * 20)

    def test_non_ipv4_rejected(self):
        ip = IPv4Header(src="1.2.3.4", dst="5.6.7.8")
        udp = UDPHeader(src_port=1, dst_port=2)
        frame = bytearray(encode_ethernet_ipv4_udp(ip, udp, b"x"))
        frame[12:14] = b"\x86\xdd"  # IPv6 ethertype
        with pytest.raises(ValueError):
            decode_ethernet_ipv4_udp(bytes(frame))

    def test_invalid_ip_address_rejected(self):
        with pytest.raises(ValueError):
            encode_ethernet_ipv4_udp(
                IPv4Header(src="not-an-ip", dst="1.2.3.4"), UDPHeader(src_port=1, dst_port=2), b""
            )


class TestPcapRoundTrip:
    def _make_packets(self, n=25):
        rng = np.random.default_rng(0)
        packets = []
        for i in range(n):
            rtp = RTPHeader(
                payload_type=102,
                sequence_number=i % 65536,
                timestamp=(i // 3) * 3000,
                ssrc=42,
                marker=(i % 3 == 2),
            )
            packets.append(
                Packet(
                    timestamp=0.01 * i,
                    ip=IPv4Header(src="192.0.2.10", dst="10.0.0.1"),
                    udp=UDPHeader(src_port=3478, dst_port=50000),
                    payload_size=int(rng.integers(100, 1200)),
                    rtp=rtp,
                    media_type=MediaType.VIDEO,
                    frame_id=i // 3,
                )
            )
        return packets

    def test_write_and_read_back(self, tmp_path):
        packets = self._make_packets()
        path = tmp_path / "call.pcap"
        written = write_pcap(path, packets)
        assert written == len(packets)
        restored = read_pcap(path)
        assert len(restored) == len(packets)
        for original, loaded in zip(packets, restored):
            assert loaded.payload_size == original.payload_size
            assert loaded.udp.src_port == original.udp.src_port
            assert loaded.ip.src == original.ip.src
            assert abs(loaded.timestamp - original.timestamp) < 1e-5

    def test_rtp_headers_survive_round_trip(self, tmp_path):
        packets = self._make_packets(9)
        path = tmp_path / "rtp.pcap"
        write_pcap(path, packets)
        restored = read_pcap(path)
        for original, loaded in zip(packets, restored):
            assert loaded.rtp is not None
            assert loaded.rtp.payload_type == original.rtp.payload_type
            assert loaded.rtp.sequence_number == original.rtp.sequence_number
            assert loaded.rtp.timestamp == original.rtp.timestamp
            assert loaded.rtp.marker == original.rtp.marker

    def test_parse_rtp_disabled(self, tmp_path):
        packets = self._make_packets(5)
        path = tmp_path / "nortp.pcap"
        write_pcap(path, packets)
        restored = list(PcapReader(path, parse_rtp=False))
        assert all(p.rtp is None for p in restored)

    def test_trace_round_trip(self, tmp_path, teams_call):
        path = tmp_path / "teams.pcap"
        trace = teams_call.trace
        trace.to_pcap(path)
        restored = PacketTrace.from_pcap(path, vca="teams")
        assert len(restored) == len(trace)
        assert restored.vca == "teams"
        assert np.allclose(restored.sizes, trace.sizes)

    def test_not_a_pcap_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.pcap"
        path.write_bytes(b"this is not a pcap file at all........")
        with pytest.raises(ValueError):
            list(PcapReader(path))

    def test_writer_requires_context_manager(self, tmp_path):
        from repro.net.pcap import PcapWriter

        writer = PcapWriter(tmp_path / "x.pcap")
        with pytest.raises(RuntimeError):
            writer.write(self._make_packets(1)[0])
