"""Reader and writer for the classic libpcap capture format.

The paper's pipeline stores every call as a ``.pcap`` file captured with
tcpdump.  This module lets the reproduction persist simulated calls in the
same format (microsecond-resolution classic pcap, Ethernet link type) and
read them back, so the estimation pipeline genuinely operates on on-disk
captures rather than in-memory shortcuts.

Two readers share one set of rules.  :meth:`PcapReader.__iter__` decodes
record by record into :class:`~repro.net.packet.Packet` objects; it is the
object API and the scalar oracle.  :meth:`PcapReader.read_blocks` is the
array decoder behind ``PcapSource.blocks()``: bounded slabs in,
:class:`~repro.net.block.PacketBlock` columns out, pinned byte-identical to
the oracle by ``tests/net/test_pcap_blocks.py``.  Byte orders are explicit
everywhere (CODEC001): record headers in the order the file's magic
declares, IP/UDP fields in network order.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import BinaryIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.net.block import PacketBlock
from repro.net.flows import FlowKey
from repro.net.headers import (
    ETHERNET_HEADER_LEN,
    IPV4_HEADER_MIN_LEN,
    UDP_HEADER_LEN,
    _ETHERTYPE_IPV4,
    _unpack_ip,
    decode_ethernet_ipv4_udp,
    encode_ethernet_ipv4_udp,
)
from repro.net.packet import RTP_FIXED_HEADER_LEN, Packet
from repro.rtp.header import RTP_VERSION, RTPHeader

__all__ = ["PcapReader", "PcapWriter", "read_pcap", "write_pcap", "PCAP_MAGIC"]

PCAP_MAGIC = 0xA1B2C3D4
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_LINKTYPE_ETHERNET = 1
#: The magic as read little-endian -> (record byte order, timestamp ticks
#: per second): micro- and nanosecond files, written on either kind of host.
_MAGICS = {
    PCAP_MAGIC: ("<", 1e6),
    0xD4C3B2A1: (">", 1e6),
    0xA1B23C4D: ("<", 1e9),
    0x4D3CB2A1: (">", 1e9),
}

_PROTOCOL_UDP = 17
#: Shortest frame the decoders accept: Ethernet + option-less IPv4 + UDP.
_MIN_FRAME_LEN = ETHERNET_HEADER_LEN + IPV4_HEADER_MIN_LEN + UDP_HEADER_LEN

#: How much of the file ``read_blocks`` holds at once.  A constant, not a
#: parameter: it bounds memory (the slab, plus ~60 bytes per record in it)
#: and nothing observable depends on it.
_SLAB_BYTES = 4 << 20

_U1 = np.dtype("|u1")
_U2_NET = np.dtype(">u2")
_U8 = np.dtype("<u8")
_F8 = np.dtype("<f8")
_I8 = np.dtype("<i8")
_I4 = np.dtype("<i4")
_I2 = np.dtype("<i2")
#: One decoded UDP row between slab and block: the block's per-row columns in
#: their final dtypes, addresses still as integers, and the raw RTP fixed
#: header of rows that carry one.
_ROW = np.dtype(
    [
        ("timestamp", _F8),
        ("size", _I8),
        ("src", "<u4"),
        ("dst", "<u4"),
        ("src_port", _I4),
        ("dst_port", _I4),
        ("ttl", _I2),
        ("total_length", _I4),
        ("udp_length", _I4),
        ("is_rtp", "|b1"),
        ("rtp_head", _U1, (RTP_FIXED_HEADER_LEN,)),
    ]
)


class PcapWriter:
    """Write packets to a classic pcap file (Ethernet link layer).

    RTP headers, when present on a packet, are serialised into the UDP payload
    so that a reader parsing the file recovers them; the remaining payload is
    zero-filled to the packet's recorded payload size.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file: BinaryIO | None = None

    def __enter__(self) -> "PcapWriter":
        self._file = open(self.path, "wb")  # noqa: SIM115 -- owned until __exit__
        self._file.write(
            _GLOBAL_HEADER.pack(PCAP_MAGIC, 2, 4, 0, 0, 65535, _LINKTYPE_ETHERNET)
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def write(self, packet: Packet) -> None:
        """Append one packet record."""
        if self._file is None:
            raise RuntimeError("PcapWriter must be used as a context manager")
        payload = self._build_payload(packet)
        frame = encode_ethernet_ipv4_udp(packet.ip, packet.udp, payload)
        seconds = int(packet.timestamp)
        microseconds = int(round((packet.timestamp - seconds) * 1e6))
        if microseconds >= 1_000_000:
            seconds += 1
            microseconds -= 1_000_000
        self._file.write(_RECORD_HEADER.pack(seconds, microseconds, len(frame), len(frame)))
        self._file.write(frame)

    def write_all(self, packets: Iterable[Packet]) -> int:
        count = 0
        for packet in packets:
            self.write(packet)
            count += 1
        return count

    @staticmethod
    def _build_payload(packet: Packet) -> bytes:
        if packet.rtp is not None:
            header_bytes = packet.rtp.encode()
            padding = max(0, packet.payload_size - len(header_bytes))
            return header_bytes + bytes(padding)
        return bytes(packet.payload_size)


class PcapReader:
    """Iterate packets from a classic pcap file written by :class:`PcapWriter`
    (or any Ethernet/IPv4/UDP capture, micro- or nanosecond timestamps, either
    byte order).

    Non-UDP records are skipped.  If ``parse_rtp`` is true, an RTP header is
    parsed from the first 12 payload bytes when it looks like RTP (version 2).

    ``payload_size`` comes from the header fields and the record's original
    length, ``max(0, min(udp_length, orig_len - udp_offset) - 8)``, never from
    the number of bytes captured: a header-only capture (``tcpdump -s 64``)
    reports the same sizes as the full one.

    With ``strict=False`` a capture whose *final* record is cut short -- a
    crashed tcpdump, a file still being written -- yields every complete
    record and then stops instead of raising; a corrupt global header or a
    link type other than Ethernet is an error either way.
    """

    def __init__(self, path: str | Path, parse_rtp: bool = True, strict: bool = True) -> None:
        self.path = Path(path)
        self.parse_rtp = parse_rtp
        self.strict = strict

    def _read_global_header(self, handle: BinaryIO) -> tuple[str, float]:
        """Validate the 24-byte file header; returns ``(byte order, ticks per second)``."""
        header = handle.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise ValueError(f"{self.path} is not a pcap file (truncated global header)")
        magic = struct.unpack("<I", header[:4])[0]
        if magic not in _MAGICS:
            raise ValueError(f"{self.path} is not a classic pcap file (magic 0x{magic:08x})")
        endian, ticks_per_s = _MAGICS[magic]
        link_type = struct.unpack_from(endian + "I", header, 20)[0]
        if link_type != _LINKTYPE_ETHERNET:
            raise ValueError(
                f"{self.path}: unsupported link type {link_type} "
                f"(only Ethernet, {_LINKTYPE_ETHERNET}, is decoded)"
            )
        return endian, ticks_per_s

    def _truncated(self, tail: int) -> None:
        """The capture ends ``tail`` bytes into a record: raise if ``strict``."""
        if self.strict:
            part = "record header" if tail < _RECORD_HEADER.size else "packet record"
            raise ValueError(f"{self.path}: truncated {part}")

    def _iter_records(self) -> Iterator[tuple[float, bytes, int]]:
        """Yield ``(timestamp, frame_bytes, orig_len)`` raw records, honouring ``strict``."""
        with open(self.path, "rb") as handle:
            endian, ticks_per_s = self._read_global_header(handle)
            record_struct = struct.Struct(endian + "IIII")
            while True:
                record_header = handle.read(record_struct.size)
                if len(record_header) < record_struct.size:
                    if record_header:
                        self._truncated(len(record_header))
                    return
                seconds, fraction, captured_len, original_len = record_struct.unpack(record_header)
                frame = handle.read(captured_len)
                if len(frame) < captured_len:
                    self._truncated(record_struct.size + len(frame))
                    return
                yield seconds + fraction / ticks_per_s, frame, original_len

    def __iter__(self) -> Iterator[Packet]:
        for timestamp, frame, orig_len in self._iter_records():
            packet = self._parse_frame(timestamp, frame, orig_len)
            if packet is not None:
                yield packet

    def _iter_slabs(self, handle: BinaryIO, endian: str) -> Iterator[tuple[bytes, list[int]]]:
        """Yield ``(buffer, record offsets)`` per slab of the records after the header.

        Each buffer holds whole records only: the file is read
        :data:`_SLAB_BYTES` at a time, the 16-byte record headers are walked
        once for the offsets (the one sequential step), and an unfinished
        tail is carried into the next slab.  ``offsets`` has one entry per
        record plus the end of the last one.
        """
        caplen_at = struct.Struct(endian + "I").unpack_from
        header_len = _RECORD_HEADER.size
        carry = b""
        missing = 0  # bytes the record at the head of ``carry`` still lacks
        while True:
            data = handle.read(max(_SLAB_BYTES, missing))
            if not data:
                if carry:
                    self._truncated(len(carry))
                return
            buf = carry + data
            size = len(buf)
            offsets = [0]
            pos = 0
            missing = 0
            while pos + header_len <= size:
                end = pos + header_len + caplen_at(buf, pos + 8)[0]
                if end > size:
                    missing = end - size
                    break
                offsets.append(end)
                pos = end
            carry = buf[pos:]
            if pos:
                yield buf, offsets

    def _decode_slab(
        self, buf: bytes, offsets: list[int], frame_dtype: np.dtype, ticks_per_s: float
    ) -> np.ndarray:
        """Decode the IPv4/UDP records of one slab into a ``_ROW`` array.

        Same validation as :func:`~repro.net.headers.decode_ethernet_ipv4_udp_fields`,
        applied as one boolean mask: fixed-offset fields are gathered as a
        50-byte window per record viewed through a structured dtype, the UDP
        header (whose offset depends on the IHL) as a second 8-byte window.
        """
        raw = np.frombuffer(buf, dtype=_U1)
        bounds = np.array(offsets, dtype=_I8)
        starts = bounds[:-1]
        starts = starts[np.diff(bounds) - _RECORD_HEADER.size >= _MIN_FRAME_LEN]
        if not len(starts):
            return np.empty(0, dtype=_ROW)
        head = sliding_window_view(raw, frame_dtype.itemsize)[starts].view(frame_dtype)[:, 0]
        ip_header_len = (head["version_ihl"] & 0x0F).astype(_I8) * 4
        udp_offset = ETHERNET_HEADER_LEN + ip_header_len
        caplen = head["caplen"].astype(_I8)
        keep = (
            (head["ethertype"] == _ETHERTYPE_IPV4)
            & (head["version_ihl"] >> 4 == 4)
            & (ip_header_len >= IPV4_HEADER_MIN_LEN)
            & (head["protocol"] == _PROTOCOL_UDP)
            & (caplen >= udp_offset + UDP_HEADER_LEN)
        )
        head = head[keep]
        caplen = caplen[keep]
        udp_offset = udp_offset[keep]
        udp_start = starts[keep] + _RECORD_HEADER.size + udp_offset
        udp = sliding_window_view(raw, UDP_HEADER_LEN)[udp_start].view(_U2_NET)
        udp_length = udp[:, 2].astype(_I8)

        rows = np.zeros(len(head), dtype=_ROW)
        rows["timestamp"] = head["ts_sec"].astype(_F8) + head["ts_frac"].astype(_F8) / ticks_per_s
        rows["size"] = np.maximum(
            0, np.minimum(udp_length, head["orig_len"].astype(_I8) - udp_offset) - UDP_HEADER_LEN
        )
        rows["src"] = head["src"]
        rows["dst"] = head["dst"]
        rows["src_port"] = udp[:, 0]
        rows["dst_port"] = udp[:, 1]
        rows["ttl"] = head["ttl"]
        rows["total_length"] = head["total_length"]
        rows["udp_length"] = udp_length
        if self.parse_rtp:
            captured = np.minimum(udp_length, caplen - udp_offset) - UDP_HEADER_LEN
            candidates = np.flatnonzero(captured >= RTP_FIXED_HEADER_LEN)
            payload_start = udp_start[candidates] + UDP_HEADER_LEN
            is_rtp = raw[payload_start] >> 6 == RTP_VERSION
            rtp_rows = candidates[is_rtp]
            rows["is_rtp"][rtp_rows] = True
            rows["rtp_head"][rtp_rows] = sliding_window_view(raw, RTP_FIXED_HEADER_LEN)[
                payload_start[is_rtp]
            ]
        return rows

    def read_blocks(self, chunk_size: int) -> Iterator[PacketBlock]:
        """Yield :class:`~repro.net.block.PacketBlock` chunks of the capture.

        The columnar fast path, and an array decoder end to end: the file is
        read in slabs of at most :data:`_SLAB_BYTES` (or one record, if that
        is larger), so memory stays O(slab + ``chunk_size``) whatever the
        capture size, and every field is gathered for a whole slab at once --
        no per-record Python, no ``Packet`` / header objects.  Each block has
        exactly ``chunk_size`` UDP rows (the last may be shorter); its
        ``addresses`` / ``flows`` tables are in first-seen order and RTP
        headers, when ``parse_rtp`` and present, land in the optional object
        column.  Non-UDP records are skipped, sizes follow the snaplen rule
        and truncation is handled exactly as in :meth:`__iter__`, which is
        the oracle this path is pinned against: under ``strict`` the same
        full blocks are yielded before the same ``ValueError``.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
        pending: list[np.ndarray] = []
        n_pending = 0
        with open(self.path, "rb") as handle:
            endian, ticks_per_s = self._read_global_header(handle)
            frame_dtype = _frame_dtype(endian)
            for buf, offsets in self._iter_slabs(handle, endian):
                pending.append(self._decode_slab(buf, offsets, frame_dtype, ticks_per_s))
                n_pending += len(pending[-1])
                if n_pending < chunk_size:
                    continue
                rows = np.concatenate(pending)
                full = n_pending - n_pending % chunk_size
                for lo in range(0, full, chunk_size):
                    yield _block_from_rows(rows[lo : lo + chunk_size])
                pending = [rows[full:]]
                n_pending -= full
        if n_pending:
            yield _block_from_rows(np.concatenate(pending))

    def _parse_frame(self, timestamp: float, frame: bytes, orig_len: int) -> Packet | None:
        try:
            ip, udp, payload = decode_ethernet_ipv4_udp(frame)
        except ValueError:
            return None
        rtp = None
        if self.parse_rtp and len(payload) >= RTP_FIXED_HEADER_LEN and (payload[0] >> 6) == RTP_VERSION:
            try:
                rtp = RTPHeader.decode(payload)
            except ValueError:
                rtp = None
        udp_offset = ETHERNET_HEADER_LEN + (frame[ETHERNET_HEADER_LEN] & 0x0F) * 4
        return Packet(
            timestamp=timestamp,
            ip=ip,
            udp=udp,
            payload_size=max(0, min(udp.length, orig_len - udp_offset) - UDP_HEADER_LEN),
            rtp=rtp,
        )


def _frame_dtype(endian: str) -> np.dtype:
    """Record header (file byte order) + Ethernet + fixed IPv4 header (network order)."""
    record_field = endian + "u4"
    return np.dtype(
        [
            ("ts_sec", record_field),
            ("ts_frac", record_field),
            ("caplen", record_field),
            ("orig_len", record_field),
            ("macs", "|V12"),
            ("ethertype", ">u2"),
            ("version_ihl", "|u1"),
            ("tos", "|u1"),
            ("total_length", ">u2"),
            ("id_fragment", "|V4"),
            ("ttl", "|u1"),
            ("protocol", "|u1"),
            ("checksum", ">u2"),
            ("src", ">u4"),
            ("dst", ">u4"),
        ]
    )


def _block_from_rows(rows: np.ndarray) -> PacketBlock:
    """One block from decoded ``_ROW`` rows, interning its side tables.

    Flows are found with ``np.unique`` on packed integer keys (the address
    pair first, then pair code + ports: 96 bits do not fit one key), so the
    Python below runs once per distinct flow, address and RTP row -- not per
    packet.  Addresses are interned while walking the flows in first-seen
    order, which visits them in the order a row-by-row walk would.
    """
    n = len(rows)
    src, dst = rows["src"], rows["dst"]
    src_port, dst_port = rows["src_port"], rows["dst_port"]
    _, pair_codes = np.unique((src.astype(_U8) << 32) | dst, return_inverse=True)
    flow_keys = (pair_codes.astype(_U8) << 32) | (src_port.astype(_U8) << 16) | dst_port.astype(_U8)
    _, first_rows, inverse = np.unique(flow_keys, return_index=True, return_inverse=True)
    first_seen = np.argsort(first_rows)  # np.unique's key order -> first-seen order
    flow_codes = np.argsort(first_seen).astype(_I4)[inverse]
    first_rows = first_rows[first_seen]

    addr_codes: dict[int, int] = {}
    flow_addr_codes = [
        (addr_codes.setdefault(s, len(addr_codes)), addr_codes.setdefault(d, len(addr_codes)))
        for s, d in zip(src[first_rows].tolist(), dst[first_rows].tolist())
    ]
    addresses = tuple(_unpack_ip(address.to_bytes(4, "big")) for address in addr_codes)
    flows = tuple(
        FlowKey(src=addresses[s], src_port=sp, dst=addresses[d], dst_port=dp, protocol=_PROTOCOL_UDP)
        for (s, d), sp, dp in zip(
            flow_addr_codes, src_port[first_rows].tolist(), dst_port[first_rows].tolist()
        )
    )
    flow_addr = np.array(flow_addr_codes, dtype=_I4)

    rtp = None
    if rows["is_rtp"].any():
        rtp = np.empty(n, dtype=object)
        rtp_heads = rows["rtp_head"]
        for i in np.flatnonzero(rows["is_rtp"]).tolist():
            rtp[i] = RTPHeader.decode(rtp_heads[i].tobytes())
    return PacketBlock(
        timestamps=rows["timestamp"].copy(),
        sizes=rows["size"].copy(),
        src_codes=flow_addr[flow_codes, 0],
        dst_codes=flow_addr[flow_codes, 1],
        src_ports=src_port.copy(),
        dst_ports=dst_port.copy(),
        protocols=np.full(n, _PROTOCOL_UDP, dtype=_I2),
        ttls=rows["ttl"].copy(),
        total_lengths=rows["total_length"].copy(),
        udp_lengths=rows["udp_length"].copy(),
        flow_codes=flow_codes,
        addresses=addresses,
        flows=flows,
        rtp=rtp,
    )


def write_pcap(path: str | Path, packets: Iterable[Packet]) -> int:
    """Write ``packets`` to ``path``; returns the number of records written."""
    with PcapWriter(path) as writer:
        return writer.write_all(packets)


def read_pcap(path: str | Path, parse_rtp: bool = True) -> list[Packet]:
    """Read every UDP packet from ``path`` into a list."""
    return list(PcapReader(path, parse_rtp=parse_rtp))
