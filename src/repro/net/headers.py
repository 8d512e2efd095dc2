"""Binary encode/decode for Ethernet + IPv4 + UDP headers.

Used by the pcap reader/writer so traces round-trip through real libpcap
files with well-formed link/network/transport headers, the same way the
paper's tcpdump captures do.  Only the subset of fields the estimators care
about is preserved; everything else is set to sensible constants.
"""

from __future__ import annotations

import struct

from repro.net.packet import IPv4Header, UDPHeader

__all__ = [
    "ETHERNET_HEADER_LEN",
    "IPV4_HEADER_MIN_LEN",
    "UDP_HEADER_LEN",
    "encode_ethernet_ipv4_udp",
    "decode_ethernet_ipv4_udp",
    "decode_ethernet_ipv4_udp_fields",
    "ipv4_checksum",
]

ETHERNET_HEADER_LEN = 14
IPV4_HEADER_MIN_LEN = 20
UDP_HEADER_LEN = 8

_ETHERTYPE_IPV4 = 0x0800
_DEFAULT_SRC_MAC = bytes.fromhex("020000000001")
_DEFAULT_DST_MAC = bytes.fromhex("020000000002")


def _pack_ip(addr: str) -> bytes:
    parts = addr.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted-quad IPv4 address: {addr!r}")
    try:
        octets = [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"not a dotted-quad IPv4 address: {addr!r}") from exc
    if any(not 0 <= o <= 255 for o in octets):
        raise ValueError(f"IPv4 octet out of range in {addr!r}")
    return bytes(octets)


def _unpack_ip(data: bytes) -> str:
    return ".".join(str(b) for b in data)


def ipv4_checksum(header: bytes) -> int:
    """Standard 16-bit ones-complement checksum over an IPv4 header."""
    if len(header) % 2:
        header += b"\x00"
    total = 0
    for i in range(0, len(header), 2):
        total += (header[i] << 8) | header[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def encode_ethernet_ipv4_udp(
    ip: IPv4Header, udp: UDPHeader, payload: bytes
) -> bytes:
    """Build the full Ethernet/IPv4/UDP frame bytes for ``payload``."""
    udp_length = UDP_HEADER_LEN + len(payload)
    ip_total_length = IPV4_HEADER_MIN_LEN + udp_length

    udp_header = struct.pack("!HHHH", udp.src_port, udp.dst_port, udp_length, 0)

    version_ihl = (4 << 4) | 5
    ip_header_wo_checksum = struct.pack(
        "!BBHHHBBH4s4s",
        version_ihl,
        0,  # DSCP/ECN
        ip_total_length,
        0,  # identification
        0,  # flags/fragment offset
        ip.ttl,
        ip.protocol,
        0,  # checksum placeholder
        _pack_ip(ip.src),
        _pack_ip(ip.dst),
    )
    checksum = ipv4_checksum(ip_header_wo_checksum)
    ip_header = ip_header_wo_checksum[:10] + struct.pack("!H", checksum) + ip_header_wo_checksum[12:]

    ethernet = _DEFAULT_DST_MAC + _DEFAULT_SRC_MAC + struct.pack("!H", _ETHERTYPE_IPV4)
    return ethernet + ip_header + udp_header + payload


def decode_ethernet_ipv4_udp(frame: bytes) -> tuple[IPv4Header, UDPHeader, bytes]:
    """Parse an Ethernet/IPv4/UDP frame, returning headers and the UDP payload.

    Raises :class:`ValueError` for frames that are not IPv4/UDP or are truncated.
    """
    src, dst, ttl, protocol, total_length, src_port, dst_port, udp_length, payload = (
        decode_ethernet_ipv4_udp_fields(frame)
    )
    ip_header = IPv4Header(src=src, dst=dst, ttl=ttl, protocol=protocol, total_length=total_length)
    udp_header = UDPHeader(src_port=src_port, dst_port=dst_port, length=udp_length)
    return ip_header, udp_header, payload


def decode_ethernet_ipv4_udp_fields(
    frame: bytes,
) -> tuple[str, str, int, int, int, int, int, int, bytes]:
    """Field-level frame decode: plain scalars, no header-object construction.

    The tuple is ``(src, dst, ttl, protocol, total_length, src_port,
    dst_port, udp_length, payload)``.  Same validation and errors as
    :func:`decode_ethernet_ipv4_udp`, and the scalar statement of the rules
    the array pcap decoder (:meth:`PcapReader.read_blocks
    <repro.net.pcap.PcapReader.read_blocks>`) applies as one mask.
    ``payload`` is what was *captured*; a snap-truncated frame has less of
    it than ``udp_length`` says.
    """
    if len(frame) < ETHERNET_HEADER_LEN + IPV4_HEADER_MIN_LEN + UDP_HEADER_LEN:
        raise ValueError(f"frame too short to contain Ethernet/IPv4/UDP: {len(frame)} bytes")

    ethertype = struct.unpack_from("!H", frame, 12)[0]
    if ethertype != _ETHERTYPE_IPV4:
        raise ValueError(f"not an IPv4 frame (ethertype 0x{ethertype:04x})")

    ip_offset = ETHERNET_HEADER_LEN
    version_ihl = frame[ip_offset]
    version = version_ihl >> 4
    ihl = (version_ihl & 0x0F) * 4
    if version != 4:
        raise ValueError(f"not an IPv4 packet (version {version})")
    if ihl < IPV4_HEADER_MIN_LEN:
        raise ValueError(f"invalid IPv4 header length: {ihl}")

    (total_length,) = struct.unpack_from("!H", frame, ip_offset + 2)
    ttl = frame[ip_offset + 8]
    protocol = frame[ip_offset + 9]
    src = _unpack_ip(frame[ip_offset + 12 : ip_offset + 16])
    dst = _unpack_ip(frame[ip_offset + 16 : ip_offset + 20])
    if protocol != 17:
        raise ValueError(f"not a UDP packet (protocol {protocol})")

    udp_offset = ip_offset + ihl
    if len(frame) < udp_offset + UDP_HEADER_LEN:
        raise ValueError("frame truncated before UDP header")
    src_port, dst_port, udp_length, _checksum = struct.unpack_from("!HHHH", frame, udp_offset)

    payload_start = udp_offset + UDP_HEADER_LEN
    payload_end = udp_offset + udp_length
    payload = frame[payload_start:payload_end]

    return src, dst, ttl, protocol, total_length, src_port, dst_port, udp_length, payload
