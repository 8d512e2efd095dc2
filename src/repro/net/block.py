"""Columnar packet batches: the struct-of-arrays hot-path representation.

The estimators only ever read IP/UDP *header fields* -- a timestamp, the
5-tuple, a payload size -- yet moving packets as individual frozen
:class:`~repro.net.packet.Packet` dataclasses makes every layer pay Python
object overhead per packet (attribute lookups, dataclass construction, and,
worst of all, pickling object lists across the cluster's process boundary).
:class:`PacketBlock` is the standard passive-measurement fix: a batch of
packets stored as parallel NumPy arrays (struct of arrays), with small
side tables interning the variable-width values:

* ``addresses`` -- the unique address strings of the block; per-packet
  ``src_codes`` / ``dst_codes`` are integer indices into it;
* ``flows`` -- the unique unidirectional 5-tuples
  (:class:`~repro.net.flows.FlowKey`) of the block; the per-packet
  ``flow_codes`` column is the pre-computed demultiplexing key, so the
  engine groups a block by flow with one stable argsort instead of one
  dict lookup per packet.

Optional *annotation* columns carry what the RTP baselines and the
evaluation code need (parsed RTP headers, ground-truth media types and frame
ids); blocks built from IP/UDP-only captures simply omit them.  They are
in-process only: the monitor data plane reads none of them, and
:meth:`PacketBlock.headers_only` strips them -- with the packet cache --
before a block crosses a process boundary, so the flat-buffer codec carries
the IP/UDP columns and nothing else.  Per-packet ``metadata`` dicts are
simulator-side bookkeeping and are **not** columnar: a block built via
:meth:`PacketBlock.from_packets` keeps the original ``Packet`` objects as a
zero-copy cache (so in-process consumers that need real packets get the
originals back, metadata included), but the cache is dropped on pickling.

Slicing is O(1) per column (NumPy views); :meth:`take` and
:meth:`concat` cover routing fan-out and chunk re-assembly.  Blocks are
immutable by convention: nothing in this package mutates a column after
construction, and consumers must not either.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Iterable, Sequence
from typing import Iterator

import numpy as np

from repro.net.flows import FlowKey
from repro.net.media import MediaType
from repro.net.packet import RTP_FIXED_HEADER_LEN, IPv4Header, Packet, UDPHeader

__all__ = ["PacketBlock", "blocks_from_packets"]

#: Stable media-type coding for the optional ground-truth column (-1 = None).
_MEDIA_ORDER: tuple[MediaType, ...] = tuple(MediaType)
_MEDIA_CODE = {media: code for code, media in enumerate(_MEDIA_ORDER)}

# -- flat-buffer codec layout (the shared-memory wire format) ------------------
#
# A block encodes into one contiguous little-endian buffer:
#
#   header | meta JSON | column 0 | column 1 | ... | column 10
#
# where the header is ``_CODEC_HEADER`` (magic, version, row count, meta
# length), the meta blob is the interned side tables (addresses + flow keys)
# as compact JSON, and every section is padded to an 8-byte boundary so each
# column lands aligned for its dtype and ``read_from`` can hand out zero-copy
# ``np.frombuffer`` views.  The columns are the IP/UDP header fields only:
# annotated blocks are refused (strip them with ``headers_only()``), so a
# round trip can never silently lose a column.  In-host only -- nothing
# persisted uses this layout, so a format change is a version bump and nothing more.

_CODEC_MAGIC = b"PBK1"
_CODEC_VERSION = 2
#: magic, version, 2 pad bytes, n_rows, meta_len (24 bytes, itself 8-aligned).
_CODEC_HEADER = struct.Struct("<4sHxxqq")

#: Explicit little-endian dtypes, shared by the wire sections below and the
#: in-memory column constructions (``from_packets``/``concat``/``compact``):
#: one definition means "wire dtypes equal from_packets dtypes" holds by
#: construction, not by little-endian-host coincidence (CODEC001).
_F8 = np.dtype("<f8")
_I8 = np.dtype("<i8")
_I4 = np.dtype("<i4")
_I2 = np.dtype("<i2")
_I1 = np.dtype("<i1")

#: The per-row numeric columns in buffer order, with their wire dtypes
#: (identical to what :meth:`PacketBlock.from_packets` builds, so a decoded
#: block computes bit-identically to the block that was encoded).
_CODEC_COLUMNS: tuple[tuple[str, np.dtype], ...] = (
    ("timestamps", _F8),
    ("sizes", _I8),
    ("src_codes", _I4),
    ("dst_codes", _I4),
    ("src_ports", _I4),
    ("dst_ports", _I4),
    ("protocols", _I2),
    ("ttls", _I2),
    ("total_lengths", _I4),
    ("udp_lengths", _I4),
    ("flow_codes", _I4),
)


def _pad8(n: int) -> int:
    """Round ``n`` up to the next multiple of 8 (section alignment)."""
    return (n + 7) & ~7


class _BlockRow:
    """A lightweight packet stand-in built from one block row.

    Exposes exactly the attributes the streaming operators read off a
    :class:`~repro.net.packet.Packet` in IP/UDP-only mode -- ``timestamp``,
    ``payload_size`` and the derived ``media_payload_size`` -- without the
    dataclass construction and validation cost.  Used by the engine's block
    path when the block carries no cached packet objects (i.e. it crossed a
    process boundary); operators needing anything else (RTP headers, ground
    truth) must materialize real packets via :meth:`PacketBlock.to_packets`.
    """

    __slots__ = ("timestamp", "payload_size")

    def __init__(self, timestamp: float, payload_size: int) -> None:
        self.timestamp = timestamp
        self.payload_size = payload_size

    @property
    def media_payload_size(self) -> int:
        return max(0, self.payload_size - RTP_FIXED_HEADER_LEN)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_BlockRow(timestamp={self.timestamp!r}, payload_size={self.payload_size!r})"


class PacketBlock:
    """An immutable struct-of-arrays batch of packets.

    Construct via :meth:`from_packets` (or receive one from a source's
    ``blocks()`` iterator / the cluster transport); the ``__init__`` signature
    is the trusted column-level constructor and performs no validation or
    copying beyond what callers hand it.

    Attributes
    ----------
    timestamps / sizes:
        ``float64`` receive times and ``int64`` UDP payload sizes.
    src_codes / dst_codes / addresses:
        Integer-coded endpoint addresses (indices into ``addresses``).
    src_ports / dst_ports / protocols / ttls / total_lengths / udp_lengths:
        The remaining IP/UDP header columns, enough to rebuild the exact
        :class:`~repro.net.packet.IPv4Header` / ``UDPHeader`` pair.
    flow_codes / flows:
        Per-packet indices into the unique unidirectional
        :class:`~repro.net.flows.FlowKey` table (first-seen order).
    rtp / media_codes / frame_ids:
        Optional annotation columns (``None`` when absent block-wide):
        parsed RTP headers (object array), ground-truth media-type codes
        (``int8``, -1 = none) and frame ids (``int64``, -1 = none).
        In-process only: :meth:`headers_only` drops them, and the
        flat-buffer codec refuses a block that still carries one.
    """

    __slots__ = (
        "timestamps",
        "sizes",
        "src_codes",
        "dst_codes",
        "src_ports",
        "dst_ports",
        "protocols",
        "ttls",
        "total_lengths",
        "udp_lengths",
        "flow_codes",
        "addresses",
        "flows",
        "rtp",
        "media_codes",
        "frame_ids",
        "_packets",
        "_meta_cache",
    )

    def __init__(
        self,
        timestamps: np.ndarray,
        sizes: np.ndarray,
        src_codes: np.ndarray,
        dst_codes: np.ndarray,
        src_ports: np.ndarray,
        dst_ports: np.ndarray,
        protocols: np.ndarray,
        ttls: np.ndarray,
        total_lengths: np.ndarray,
        udp_lengths: np.ndarray,
        flow_codes: np.ndarray,
        addresses: tuple[str, ...],
        flows: tuple[FlowKey, ...],
        rtp: np.ndarray | None = None,
        media_codes: np.ndarray | None = None,
        frame_ids: np.ndarray | None = None,
        _packets: tuple[Packet, ...] | None = None,
    ) -> None:
        self.timestamps = timestamps
        self.sizes = sizes
        self.src_codes = src_codes
        self.dst_codes = dst_codes
        self.src_ports = src_ports
        self.dst_ports = dst_ports
        self.protocols = protocols
        self.ttls = ttls
        self.total_lengths = total_lengths
        self.udp_lengths = udp_lengths
        self.flow_codes = flow_codes
        self.addresses = addresses
        self.flows = flows
        self.rtp = rtp
        self.media_codes = media_codes
        self.frame_ids = frame_ids
        self._packets = _packets
        # Lazily-encoded codec side tables (blocks are immutable, so the
        # bytes can be computed once and shared by byte_size/write_into).
        self._meta_cache: bytes | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_packets(cls, packets: Sequence[Packet], keep_packets: bool = True) -> "PacketBlock":
        """Columnarize ``packets`` (kept in the given order).

        One pass fills every column and interns addresses and flow keys.
        With ``keep_packets`` (the default) the original objects ride along
        as an in-process cache -- :meth:`to_packets` then returns them
        verbatim (metadata and all) at zero cost; the cache never survives
        pickling.
        """
        packets = packets if isinstance(packets, (list, tuple)) else list(packets)
        n = len(packets)
        timestamps = np.empty(n, dtype=_F8)
        sizes = np.empty(n, dtype=_I8)
        src_codes = np.empty(n, dtype=_I4)
        dst_codes = np.empty(n, dtype=_I4)
        src_ports = np.empty(n, dtype=_I4)
        dst_ports = np.empty(n, dtype=_I4)
        protocols = np.empty(n, dtype=_I2)
        ttls = np.empty(n, dtype=_I2)
        total_lengths = np.empty(n, dtype=_I4)
        udp_lengths = np.empty(n, dtype=_I4)
        flow_codes = np.empty(n, dtype=_I4)

        addr_codes: dict[str, int] = {}
        flow_table: dict[tuple, int] = {}
        flow_keys: list[FlowKey] = []
        rtp_list: list | None = None
        media_list: list[int] | None = None
        frame_list: list[int] | None = None

        for i, packet in enumerate(packets):
            ip = packet.ip
            udp = packet.udp
            timestamps[i] = packet.timestamp
            sizes[i] = packet.payload_size
            src = addr_codes.setdefault(ip.src, len(addr_codes))
            dst = addr_codes.setdefault(ip.dst, len(addr_codes))
            src_codes[i] = src
            dst_codes[i] = dst
            src_ports[i] = udp.src_port
            dst_ports[i] = udp.dst_port
            protocols[i] = ip.protocol
            ttls[i] = ip.ttl
            total_lengths[i] = ip.total_length
            udp_lengths[i] = udp.length
            composite = (src, udp.src_port, dst, udp.dst_port, ip.protocol)
            code = flow_table.get(composite)
            if code is None:
                code = len(flow_table)
                flow_table[composite] = code
                flow_keys.append(
                    FlowKey(
                        src=ip.src,
                        src_port=udp.src_port,
                        dst=ip.dst,
                        dst_port=udp.dst_port,
                        protocol=ip.protocol,
                    )
                )
            flow_codes[i] = code
            if packet.rtp is not None:
                if rtp_list is None:
                    rtp_list = [None] * n
                rtp_list[i] = packet.rtp
            if packet.media_type is not None:
                if media_list is None:
                    media_list = [-1] * n
                media_list[i] = _MEDIA_CODE[packet.media_type]
            if packet.frame_id is not None:
                if packet.frame_id < 0:
                    raise ValueError(f"negative frame_id cannot be columnarized: {packet.frame_id}")
                if frame_list is None:
                    frame_list = [-1] * n
                frame_list[i] = packet.frame_id

        rtp = None
        if rtp_list is not None:
            rtp = np.empty(n, dtype=object)
            rtp[:] = rtp_list
        return cls(
            timestamps=timestamps,
            sizes=sizes,
            src_codes=src_codes,
            dst_codes=dst_codes,
            src_ports=src_ports,
            dst_ports=dst_ports,
            protocols=protocols,
            ttls=ttls,
            total_lengths=total_lengths,
            udp_lengths=udp_lengths,
            flow_codes=flow_codes,
            addresses=tuple(addr_codes),
            flows=tuple(flow_keys),
            rtp=rtp,
            media_codes=np.asarray(media_list, dtype=_I1) if media_list is not None else None,
            frame_ids=np.asarray(frame_list, dtype=_I8) if frame_list is not None else None,
            _packets=tuple(packets) if keep_packets else None,
        )

    @classmethod
    def concat(cls, blocks: Sequence["PacketBlock"]) -> "PacketBlock":
        """Concatenate ``blocks`` into one, re-interning addresses and flows.

        Row order is the concatenation order; the merged side tables keep
        first-seen order across blocks, so codes stay dense and stable.
        """
        blocks = list(blocks)
        if not blocks:
            return cls.from_packets([])
        if len(blocks) == 1:
            return blocks[0]
        addr_codes: dict[str, int] = {}
        flow_table: dict[tuple, int] = {}
        flow_keys: list[FlowKey] = []
        addr_maps: list[np.ndarray] = []
        flow_maps: list[np.ndarray] = []
        for block in blocks:
            addr_maps.append(
                np.array(
                    [addr_codes.setdefault(addr, len(addr_codes)) for addr in block.addresses],
                    dtype=_I4,
                )
            )
            remap = np.empty(len(block.flows), dtype=_I4)
            for local, flow in enumerate(block.flows):
                # Resolve via the merged address table (flow addresses are
                # guaranteed to be in the block's own table).
                src = addr_codes[flow.src]
                dst = addr_codes[flow.dst]
                composite = (src, flow.src_port, dst, flow.dst_port, flow.protocol)
                code = flow_table.get(composite)
                if code is None:
                    code = len(flow_table)
                    flow_table[composite] = code
                    flow_keys.append(flow)
                remap[local] = code
            flow_maps.append(remap)

        def cat(name: str) -> np.ndarray:
            return np.concatenate([getattr(b, name) for b in blocks])

        n = sum(len(b) for b in blocks)
        rtp = None
        if any(b.rtp is not None for b in blocks):
            rtp = np.empty(n, dtype=object)
            offset = 0
            for b in blocks:
                if b.rtp is not None:
                    rtp[offset : offset + len(b)] = b.rtp
                offset += len(b)
        media_codes = None
        if any(b.media_codes is not None for b in blocks):
            media_codes = np.concatenate(
                [
                    b.media_codes
                    if b.media_codes is not None
                    else np.full(len(b), -1, dtype=_I1)
                    for b in blocks
                ]
            )
        frame_ids = None
        if any(b.frame_ids is not None for b in blocks):
            frame_ids = np.concatenate(
                [
                    b.frame_ids
                    if b.frame_ids is not None
                    else np.full(len(b), -1, dtype=_I8)
                    for b in blocks
                ]
            )
        packets: tuple[Packet, ...] | None = None
        if all(b._packets is not None for b in blocks):
            packets = tuple(p for b in blocks for p in b._packets)
        return cls(
            timestamps=cat("timestamps"),
            sizes=cat("sizes"),
            src_codes=np.concatenate(
                [m[b.src_codes] for b, m in zip(blocks, addr_maps)]
            ),
            dst_codes=np.concatenate(
                [m[b.dst_codes] for b, m in zip(blocks, addr_maps)]
            ),
            src_ports=cat("src_ports"),
            dst_ports=cat("dst_ports"),
            protocols=cat("protocols"),
            ttls=cat("ttls"),
            total_lengths=cat("total_lengths"),
            udp_lengths=cat("udp_lengths"),
            flow_codes=np.concatenate(
                [m[b.flow_codes] for b, m in zip(blocks, flow_maps)]
            ),
            addresses=tuple(addr_codes),
            flows=tuple(flow_keys),
            rtp=rtp,
            media_codes=media_codes,
            frame_ids=frame_ids,
            _packets=packets,
        )

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, index: slice) -> "PacketBlock":
        """Slice the block: O(1) array views sharing the side tables."""
        if not isinstance(index, slice):
            raise TypeError("PacketBlock indexing requires a slice; use to_packets() for rows")
        return PacketBlock(
            timestamps=self.timestamps[index],
            sizes=self.sizes[index],
            src_codes=self.src_codes[index],
            dst_codes=self.dst_codes[index],
            src_ports=self.src_ports[index],
            dst_ports=self.dst_ports[index],
            protocols=self.protocols[index],
            ttls=self.ttls[index],
            total_lengths=self.total_lengths[index],
            udp_lengths=self.udp_lengths[index],
            flow_codes=self.flow_codes[index],
            addresses=self.addresses,
            flows=self.flows,
            rtp=self.rtp[index] if self.rtp is not None else None,
            media_codes=self.media_codes[index] if self.media_codes is not None else None,
            frame_ids=self.frame_ids[index] if self.frame_ids is not None else None,
            _packets=self._packets[index] if self._packets is not None else None,
        )

    def take(self, indices: np.ndarray) -> "PacketBlock":
        """The sub-block of rows at ``indices`` (in that order)."""
        packets = None
        if self._packets is not None:
            source = self._packets
            packets = tuple(source[i] for i in indices)
        return PacketBlock(
            timestamps=self.timestamps[indices],
            sizes=self.sizes[indices],
            src_codes=self.src_codes[indices],
            dst_codes=self.dst_codes[indices],
            src_ports=self.src_ports[indices],
            dst_ports=self.dst_ports[indices],
            protocols=self.protocols[indices],
            ttls=self.ttls[indices],
            total_lengths=self.total_lengths[indices],
            udp_lengths=self.udp_lengths[indices],
            flow_codes=self.flow_codes[indices],
            addresses=self.addresses,
            flows=self.flows,
            rtp=self.rtp[indices] if self.rtp is not None else None,
            media_codes=self.media_codes[indices] if self.media_codes is not None else None,
            frame_ids=self.frame_ids[indices] if self.frame_ids is not None else None,
            _packets=packets,
        )

    def compact(self) -> "PacketBlock":
        """Re-intern the side tables to the rows actually present.

        Slices share their parent's ``flows`` / ``addresses`` tables, which
        is ideal in-process (O(1) slicing) but wrong for the wire: a chunk
        sliced from a whole-capture block would otherwise ship the entire
        capture's flow-key table with every message.  ``compact`` rebuilds
        dense tables covering only this block's rows and remaps the code
        columns; a block whose tables are already dense is returned as-is.
        """
        n = len(self.timestamps)
        flow_present = np.unique(self.flow_codes) if n else np.empty(0, dtype=_I8)
        addr_present = (
            np.unique(np.concatenate((self.src_codes, self.dst_codes)))
            if n
            else np.empty(0, dtype=_I8)
        )
        if len(flow_present) == len(self.flows) and len(addr_present) == len(self.addresses):
            return self
        flow_map = np.zeros(len(self.flows) + 1, dtype=_I4)
        flow_map[flow_present] = np.arange(len(flow_present), dtype=_I4)
        addr_map = np.zeros(len(self.addresses) + 1, dtype=_I4)
        addr_map[addr_present] = np.arange(len(addr_present), dtype=_I4)
        return PacketBlock(
            timestamps=self.timestamps,
            sizes=self.sizes,
            src_codes=addr_map[self.src_codes],
            dst_codes=addr_map[self.dst_codes],
            src_ports=self.src_ports,
            dst_ports=self.dst_ports,
            protocols=self.protocols,
            ttls=self.ttls,
            total_lengths=self.total_lengths,
            udp_lengths=self.udp_lengths,
            flow_codes=flow_map[self.flow_codes],
            addresses=tuple(self.addresses[i] for i in addr_present.tolist()),
            flows=tuple(self.flows[i] for i in flow_present.tolist()),
            rtp=self.rtp,
            media_codes=self.media_codes,
            frame_ids=self.frame_ids,
            _packets=self._packets,
        )

    def headers_only(self) -> "PacketBlock":
        """This block as the IP/UDP header columns alone (shared, not copied).

        Drops the in-process packet-object cache and the annotation columns
        (``rtp``, ``media_codes``, ``frame_ids``) -- everything the monitor
        data plane does not read.  What is left is exactly what the
        flat-buffer codec encodes; the block itself when nothing is dropped.
        """
        if self._packets is None and not self._annotated:
            return self
        return PacketBlock(
            timestamps=self.timestamps,
            sizes=self.sizes,
            src_codes=self.src_codes,
            dst_codes=self.dst_codes,
            src_ports=self.src_ports,
            dst_ports=self.dst_ports,
            protocols=self.protocols,
            ttls=self.ttls,
            total_lengths=self.total_lengths,
            udp_lengths=self.udp_lengths,
            flow_codes=self.flow_codes,
            addresses=self.addresses,
            flows=self.flows,
        )

    @property
    def _annotated(self) -> bool:
        """Whether any annotation column (RTP, ground truth) is present."""
        return self.rtp is not None or self.media_codes is not None or self.frame_ids is not None

    # -- grouping --------------------------------------------------------------

    def flow_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flow demultiplex as flat arrays: ``(order, codes, bounds)``.

        ``order[bounds[s]:bounds[s + 1]]`` are flow ``codes[s]``'s row
        indices, ascending; flows are in first-appearance order.  One stable
        argsort over the pre-computed codes and one over the flows' first
        rows -- the vectorized demultiplex.
        """
        codes = self.flow_codes
        n = len(codes)
        if n == 0:
            return np.arange(0), codes[:0], np.array([0])
        if len(self.flows) == 1 or bool((codes == codes[0]).all()):
            return np.arange(n), codes[:1], np.array([0, n])
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        head = np.ones(n, dtype=bool)
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        by_first_row = np.argsort(order[starts])
        if (by_first_row[1:] < by_first_row[:-1]).any():
            rank = np.empty_like(by_first_row)
            rank[by_first_row] = np.arange(len(starts))
            order = order[np.argsort(rank[np.cumsum(head) - 1], kind="stable")]
            sorted_codes = codes[order]
            np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=head[1:])
            starts = np.flatnonzero(head)
        return order, sorted_codes[starts], np.append(starts, n)

    def flow_groups(self) -> list[tuple[int, np.ndarray]]:
        """``(flow_code, row_indices)`` per flow, in first-appearance order.

        Row indices are ascending within each group (see
        :meth:`flow_segments`), so feeding the groups preserves each flow's
        arrival order exactly.
        """
        order, codes, bounds = self.flow_segments()
        return [
            (code, order[a:b])
            for code, a, b in zip(codes.tolist(), bounds[:-1].tolist(), bounds[1:].tolist())
        ]

    # -- materialization -------------------------------------------------------

    @property
    def has_packet_cache(self) -> bool:
        """Whether the original packet objects are still attached (in-process)."""
        return self._packets is not None

    def to_packets(self) -> list[Packet]:
        """Materialize :class:`~repro.net.packet.Packet` objects for the block.

        Returns the cached originals when the block never left the process;
        otherwise reconstructs packets from the columns (header fields, RTP
        and ground-truth columns round-trip exactly; per-packet ``metadata``
        dicts do not cross the columnar representation).
        """
        if self._packets is not None:
            return list(self._packets)
        addresses = self.addresses
        rtp = self.rtp
        media_codes = self.media_codes
        frame_ids = self.frame_ids
        packets: list[Packet] = []
        for i in range(len(self.timestamps)):
            media = None
            if media_codes is not None and media_codes[i] >= 0:
                media = _MEDIA_ORDER[media_codes[i]]
            frame_id = None
            if frame_ids is not None and frame_ids[i] >= 0:
                frame_id = int(frame_ids[i])
            packets.append(
                Packet(
                    timestamp=float(self.timestamps[i]),
                    ip=IPv4Header(
                        src=addresses[self.src_codes[i]],
                        dst=addresses[self.dst_codes[i]],
                        ttl=int(self.ttls[i]),
                        protocol=int(self.protocols[i]),
                        total_length=int(self.total_lengths[i]),
                    ),
                    udp=UDPHeader(
                        src_port=int(self.src_ports[i]),
                        dst_port=int(self.dst_ports[i]),
                        length=int(self.udp_lengths[i]),
                    ),
                    payload_size=int(self.sizes[i]),
                    rtp=rtp[i] if rtp is not None else None,
                    media_type=media,
                    frame_id=frame_id,
                )
            )
        return packets

    def packet_rows(self, indices: np.ndarray) -> list:
        """Objects usable by the IP/UDP streaming operators, one per index.

        Cached originals when available (zero cost, full fidelity);
        otherwise lightweight rows exposing ``timestamp`` / ``payload_size``
        / ``media_payload_size`` -- all the engine's heuristic operators read.
        """
        if self._packets is not None:
            source = self._packets
            return [source[i] for i in indices]
        ts = self.timestamps
        sizes = self.sizes
        return [_BlockRow(float(ts[i]), int(sizes[i])) for i in indices]

    def iter_packets(self) -> Iterator[Packet]:
        return iter(self.to_packets())

    # -- flat-buffer codec (the shared-memory wire format) ---------------------

    def _codec_meta(self) -> bytes:
        """The interned side tables as a compact JSON blob (cached)."""
        if self._meta_cache is None:
            self._meta_cache = json.dumps(
                {
                    "addresses": list(self.addresses),
                    "flows": [
                        [f.src, f.src_port, f.dst, f.dst_port, f.protocol] for f in self.flows
                    ],
                },
                separators=(",", ":"),
            ).encode()
        return self._meta_cache

    def _codec_check(self) -> None:
        if self._annotated:
            raise ValueError(
                "the flat-buffer codec carries IP/UDP header columns only; "
                "strip RTP / ground-truth columns with headers_only() first"
            )

    def byte_size(self) -> int:
        """Encoded size of this block in the flat-buffer layout, in bytes.

        Raises :class:`ValueError` for a block that still carries an
        annotation column (see :meth:`headers_only`).
        """
        self._codec_check()
        n = len(self.timestamps)
        size = _CODEC_HEADER.size + _pad8(len(self._codec_meta()))
        for _, dtype in _CODEC_COLUMNS:
            size += _pad8(n * dtype.itemsize)
        return size

    def write_into(self, buf: memoryview) -> int:
        """Encode this block into ``buf``; returns the bytes written.

        The layout is the module's flat-buffer codec: a fixed header, the
        side tables as JSON, then each numeric column 8-aligned.  ``buf``
        must be writable and at least :meth:`byte_size` bytes long.
        """
        total = self.byte_size()
        n = len(self.timestamps)
        meta = self._codec_meta()
        mv = memoryview(buf)
        if len(mv) < total:
            raise ValueError(f"buffer too small: need {total} bytes, have {len(mv)}")
        _CODEC_HEADER.pack_into(mv, 0, _CODEC_MAGIC, _CODEC_VERSION, n, len(meta))
        offset = _CODEC_HEADER.size
        mv[offset : offset + len(meta)] = meta
        offset += _pad8(len(meta))
        for name, dtype in _CODEC_COLUMNS:
            dest = np.frombuffer(mv, dtype=dtype, count=n, offset=offset)
            dest[:] = getattr(self, name)
            offset += _pad8(n * dtype.itemsize)
        return offset

    @classmethod
    def read_from(cls, buf: memoryview) -> "PacketBlock":
        """Decode a block encoded by :meth:`write_into`, zero-copy.

        Every numeric column is an ``np.frombuffer`` *view* over ``buf`` --
        nothing is copied, which is the point of the shared-memory transport.
        The caller owns the buffer's lifetime: the returned block (and any
        state derived from its columns by reference) must not outlive it.
        Consumers that release the buffer back to a ring must finish with the
        block first (the engine's ``push_block`` copies what it keeps).
        """
        mv = memoryview(buf)
        magic, version, n, meta_len = _CODEC_HEADER.unpack_from(mv, 0)
        if magic != _CODEC_MAGIC:
            raise ValueError(f"not a flat-encoded PacketBlock (magic {magic!r})")
        if version != _CODEC_VERSION:
            raise ValueError(f"unsupported PacketBlock codec version {version}")
        offset = _CODEC_HEADER.size
        meta = json.loads(bytes(mv[offset : offset + meta_len]))
        offset += _pad8(meta_len)
        columns: dict[str, np.ndarray] = {}
        for name, dtype in _CODEC_COLUMNS:
            columns[name] = np.frombuffer(mv, dtype=dtype, count=n, offset=offset)
            offset += _pad8(n * dtype.itemsize)
        return cls(
            addresses=tuple(meta["addresses"]),
            flows=tuple(
                FlowKey(src=src, src_port=src_port, dst=dst, dst_port=dst_port, protocol=protocol)
                for src, src_port, dst, dst_port, protocol in meta["flows"]
            ),
            **columns,
        )

    # -- pickling (the cluster wire format) ------------------------------------

    def __getstate__(self) -> dict:
        """Arrays and side tables only: the packet-object cache never ships."""
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_packets"] = None
        state["_meta_cache"] = None
        # Basic slices are views into the parent block's buffers; pickling a
        # view would serialize the whole base buffer.
        for name, value in state.items():
            if isinstance(value, np.ndarray) and value.base is not None:
                state[name] = value.copy()
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketBlock(n={len(self)}, flows={len(self.flows)}, "
            f"cached_packets={self._packets is not None})"
        )


def blocks_from_packets(
    packets: Iterable[Packet], chunk_size: int, keep_packets: bool = True
) -> Iterator[PacketBlock]:
    """Generic adapter: batch any packet iterable into ``PacketBlock`` chunks."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
    chunk: list[Packet] = []
    for packet in packets:
        chunk.append(packet)
        if len(chunk) >= chunk_size:
            yield PacketBlock.from_packets(chunk, keep_packets=keep_packets)
            chunk = []
    if chunk:
        yield PacketBlock.from_packets(chunk, keep_packets=keep_packets)
