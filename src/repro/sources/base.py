"""Packet sources: the pluggable input side of a monitor.

A *source* is anything that yields :class:`~repro.net.packet.Packet` objects
in (approximate) arrival order -- a materialized trace, a pcap file on disk,
an arbitrary generator wired to a capture interface, or a timestamp-merge of
several capture points (:class:`~repro.sources.merged.MergedSource`).  The
protocol is deliberately tiny (``__iter__``) so that anything iterable can be
a source; the concrete classes here add ergonomics (repeatable iteration,
lazy file reading, coercion) on top.

Sources never interpret packets: demultiplexing, reordering tolerance and
windowing all live in the engine
(:class:`~repro.core.streaming.StreamingQoEPipeline`), which means a source
only has to deliver packets roughly in order -- displacement within the
engine's ``reorder_depth`` is absorbed downstream.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.net.block import PacketBlock, blocks_from_packets
from repro.net.packet import Packet
from repro.net.trace import PacketTrace

__all__ = [
    "PacketSource",
    "IteratorSource",
    "TraceSource",
    "PcapSource",
    "as_source",
    "iter_blocks",
]

#: Default packets per block on the columnar path: large enough to amortize
#: per-block overhead, small enough to keep estimate latency and per-chunk
#: memory bounded.
DEFAULT_BLOCK_SIZE = 1024


@runtime_checkable
class PacketSource(Protocol):
    """Anything that can be iterated to produce packets in arrival order."""

    def __iter__(self) -> Iterator[Packet]: ...  # pragma: no cover - protocol


def iter_blocks(source: "PacketSource", chunk_size: int = DEFAULT_BLOCK_SIZE) -> Iterator[PacketBlock]:
    """Iterate ``source`` as columnar :class:`~repro.net.block.PacketBlock`\\ s.

    The generic adapter over the ``PacketSource`` protocol: sources that
    implement a native ``blocks(chunk_size)`` fast path (``TraceSource``
    slices its trace's cached columns, ``PcapSource`` decodes slabs of the
    file straight into arrays) are used as such; anything else is batched
    packet-by-packet via :func:`~repro.net.block.blocks_from_packets`.
    """
    native = getattr(source, "blocks", None)
    if callable(native):
        yield from native(chunk_size)
    else:
        yield from blocks_from_packets(source, chunk_size)


class IteratorSource:
    """Wrap an arbitrary packet iterable (e.g. a live-capture generator).

    The wrapped iterable is consumed as-is; if it is a one-shot generator the
    source is one-shot too (exactly what a live capture is).
    """

    def __init__(self, packets: Iterable[Packet]) -> None:
        self._packets = packets

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._packets)

    def blocks(self, chunk_size: int = DEFAULT_BLOCK_SIZE) -> Iterator[PacketBlock]:
        """Batch the wrapped iterable into columnar blocks (generic adapter)."""
        return blocks_from_packets(self, chunk_size)


class TraceSource:
    """A materialized :class:`~repro.net.trace.PacketTrace` as a source.

    Repeatable (the trace is held in memory) and sized.
    """

    def __init__(self, trace: PacketTrace) -> None:
        self.trace = trace

    def __len__(self) -> int:
        return len(self.trace)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.trace)

    def blocks(self, chunk_size: int = DEFAULT_BLOCK_SIZE) -> Iterator[PacketBlock]:
        """Native fast path: O(1) array slices of the trace's cached columns."""
        block = self.trace.block
        for lo in range(0, len(block), chunk_size):
            yield block[lo : lo + chunk_size]


class PcapSource:
    """Stream packets lazily from an on-disk pcap capture.

    Unlike ``PacketTrace.from_pcap`` this never materializes the capture:
    iteration reads one record at a time and :meth:`blocks` reads bounded
    slabs (4 MiB, or one record if that is larger), so a multi-gigabyte
    operator capture can be monitored in O(window) memory end to end.
    Repeatable (each iteration reopens the file).

    Packet sizes follow the snaplen rule of
    :class:`~repro.net.pcap.PcapReader`: they come from the UDP length field
    and the record's original length, not from the bytes captured, so a
    header-only capture (``tcpdump -s 64``) is monitored like the full one.

    Parameters
    ----------
    path:
        The capture file (classic libpcap format, Ethernet/IPv4/UDP; micro-
        or nanosecond timestamps, either byte order).  Any other link type
        raises :class:`ValueError`, with ``strict`` or without.
    parse_rtp:
        Parse RTP headers when the payload looks like RTP.  The IP/UDP
        estimators never read them; disable for a few percent less parsing
        work on captures known to be header-stripped.
    strict:
        True (the default, matching every other pcap entry point) raises on
        a capture whose final record is cut short.  Opt into ``strict=False``
        for captures that may legitimately end mid-record -- a monitor that
        crashed mid-write, a live file still being appended -- to yield the
        complete records and stop.  Never silently the default: a truncated
        input scored as a shorter healthy capture would under-report
        degradation with zero signal.
    """

    def __init__(self, path: str | Path, parse_rtp: bool = True, strict: bool = True) -> None:
        from repro.net.pcap import PcapReader

        self.path = Path(path)
        self._reader = PcapReader(self.path, parse_rtp=parse_rtp, strict=strict)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._reader)

    def blocks(self, chunk_size: int = DEFAULT_BLOCK_SIZE) -> Iterator[PacketBlock]:
        """Native fast path: slabs of the file decode straight into block columns.

        Every block has exactly ``chunk_size`` UDP rows (the last may be
        shorter).  No per-record Python runs and no
        :class:`~repro.net.packet.Packet` objects are constructed; see
        :meth:`PcapReader.read_blocks <repro.net.pcap.PcapReader.read_blocks>`.
        """
        return self._reader.read_blocks(chunk_size)


def as_source(packets: "PacketSource | PacketTrace | str | Path | Iterable[Packet]") -> PacketSource:
    """Coerce traces, pcap paths and bare iterables into a source.

    Anything already satisfying the :class:`PacketSource` protocol --
    including :class:`~repro.sources.merged.MergedSource`, user-defined
    sources, and bare iterables/generators -- passes through unchanged, so
    facade APIs accept any packet-shaped input without the caller wrapping
    it by hand and without losing the original object's API.
    """
    if isinstance(packets, (str, Path)):
        return PcapSource(packets)
    if isinstance(packets, PacketTrace):
        return TraceSource(packets)
    if isinstance(packets, PacketSource):
        return packets
    raise TypeError(f"cannot interpret {type(packets).__name__} as a packet source")
