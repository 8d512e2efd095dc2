"""Packet trace container.

:class:`PacketTrace` is the central data structure of the reproduction: the
simulator produces one per call, the dataset builders persist them to pcap,
and every estimator consumes them.  It keeps packets sorted by arrival time
and provides the slicing/windowing/statistics primitives that the feature
extraction (Table 1) and the heuristics need.

Internally a trace is backed by **either or both** of two representations:

* a sorted ``list[Packet]`` (full fidelity, including simulator metadata) --
  what ``__init__`` builds and every object-level operation uses;
* a columnar :class:`~repro.net.block.PacketBlock` (struct of arrays) --
  built lazily via :attr:`block` and sliced directly by :meth:`time_slice`
  / :meth:`iter_windows`, so windowing costs O(log n) index arithmetic plus
  O(1) array views instead of per-packet list copies.

Traces created from a block (:meth:`from_block`, block-sliced windows)
materialize packet objects only when something actually needs them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.net.packet import MediaType, Packet

if TYPE_CHECKING:  # pragma: no cover - import only needed for type checkers
    from repro.net.block import PacketBlock

__all__ = ["PacketTrace", "TraceStats", "window_grid"]


def window_grid(start: float, window_s: float, end: float):
    """Yield ``(k, t, next_t)`` for consecutive windows covering ``[start, end)``.

    The single source of truth for the drift-free window grid: boundaries are
    computed as ``start + k * window_s`` (index multiplication, no float
    accumulation) and each window's upper bound *is* the next window's start,
    so on fractional grids no timestamp can be double-counted or dropped.
    Every windowing code path (batch slicing, heuristic attribution, the
    streaming engine's ``window_index``) must agree with this arithmetic to
    the last ulp.
    """
    if window_s <= 0:
        raise ValueError("window must be positive")
    k = 0
    t = start
    while t < end:
        next_t = start + (k + 1) * window_s
        yield k, t, next_t
        k += 1
        t = next_t


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics for a trace (or a slice of one)."""

    n_packets: int
    n_bytes: int
    duration: float
    start_time: float
    end_time: float
    mean_packet_size: float
    mean_interarrival: float

    @property
    def throughput_bps(self) -> float:
        """Average throughput in bits per second over the trace duration."""
        if self.duration <= 0:
            return 0.0
        return 8.0 * self.n_bytes / self.duration


class PacketTrace:
    """An ordered sequence of packets belonging to one capture.

    Packets are kept sorted by timestamp; out-of-order insertion is allowed
    and re-sorted lazily, mirroring the fact that a passive monitor records
    packets in arrival order even when the RTP sequence numbers say otherwise.
    """

    def __init__(self, packets: Iterable[Packet] = (), vca: str | None = None) -> None:
        self._packets: list[Packet] | None = sorted(packets, key=lambda p: p.timestamp)
        self.vca = vca
        #: Cached columnar view (rebuilt after mutation), built only when a
        #: column consumer asks for it.
        self._block: PacketBlock | None = None
        #: Cheap timestamp-only cache for slicing/stats on list-backed
        #: traces that never need the full columns.
        self._times: np.ndarray | None = None

    @classmethod
    def from_block(cls, block: "PacketBlock", vca: str | None = None) -> "PacketTrace":
        """A trace backed by a (timestamp-sorted) columnar block.

        Packet objects are materialized lazily: array-level operations
        (slicing, windowing, statistics) run on the columns directly.
        """
        trace = cls.__new__(cls)
        trace._packets = None
        trace._block = block
        trace._times = None
        trace.vca = vca
        return trace

    # -- representation management --------------------------------------------

    def _materialized(self) -> list[Packet]:
        """The packet-object list, built from the block on first need."""
        if self._packets is None:
            assert self._block is not None
            self._packets = self._block.to_packets()
        return self._packets

    @property
    def block(self) -> "PacketBlock":
        """The columnar (struct-of-arrays) view of this trace, cached.

        Built on first access from the packet list (keeping the original
        objects attached, so nothing is lost in-process); invalidated by
        mutation.  Slicing operations share it: a ``time_slice`` of a trace
        whose block exists is an O(1) pair of array views.
        """
        if self._block is None:
            from repro.net.block import PacketBlock

            self._block = PacketBlock.from_packets(self._materialized())
        return self._block

    def _invalidate(self) -> None:
        self._block = None
        self._times = None

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        if self._packets is not None:
            return len(self._packets)
        return len(self._block)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._materialized())

    def __getitem__(self, index):
        if isinstance(index, slice):
            if self._packets is None:
                return PacketTrace.from_block(self._block[index], vca=self.vca)
            sliced = PacketTrace(self._packets[index], vca=self.vca)
            return sliced
        return self._materialized()[index]

    def __bool__(self) -> bool:
        return len(self) > 0

    # -- construction ---------------------------------------------------------

    def append(self, packet: Packet) -> None:
        """Add a packet, preserving timestamp order."""
        packets = self._materialized()
        if packets and packet.timestamp < packets[-1].timestamp:
            position = bisect_left([p.timestamp for p in packets], packet.timestamp)
            packets.insert(position, packet)
        else:
            packets.append(packet)
        self._invalidate()

    def extend(self, packets: Iterable[Packet]) -> None:
        for packet in packets:
            self.append(packet)

    @classmethod
    def from_pcap(cls, path: str | Path, vca: str | None = None) -> "PacketTrace":
        """Load a trace from a pcap file (see :mod:`repro.net.pcap`).

        Decoded through the array reader straight into the trace's columnar
        block; packet objects are materialized only if something asks.  RTP
        headers are parsed, so the RTP baselines can run on the trace.
        """
        from repro.net.block import PacketBlock
        from repro.net.pcap import PcapReader

        block = PacketBlock.concat(PcapReader(path).read_blocks(1 << 16))
        times = block.timestamps
        if len(times) > 1 and bool((times[1:] < times[:-1]).any()):
            block = block.take(np.argsort(times, kind="stable"))
        return cls.from_block(block, vca=vca)

    def to_pcap(self, path: str | Path) -> int:
        """Persist the trace to a pcap file; returns the number of records."""
        from repro.net.pcap import write_pcap

        return write_pcap(path, self._materialized())

    # -- views ----------------------------------------------------------------

    @property
    def packets(self) -> list[Packet]:
        return list(self._materialized())

    def _timestamps_cached(self) -> np.ndarray:
        """The timestamp array: the block column when built, else a flat cache.

        Timestamp-only consumers (``start_time``, slicing index, stats) must
        not force full columnarization of a list-backed trace; the block is
        built only when something needs actual columns.
        """
        if self._block is not None:
            return self._block.timestamps
        if self._times is None or len(self._times) != len(self._packets):
            self._times = np.fromiter(
                (p.timestamp for p in self._packets), dtype=float, count=len(self._packets)
            )
        return self._times

    @property
    def timestamps(self) -> np.ndarray:
        return self._timestamps_cached().copy()

    @property
    def sizes(self) -> np.ndarray:
        if self._block is not None:
            return self._block.sizes.astype(float)
        return np.array([p.payload_size for p in self._packets], dtype=float)

    @property
    def start_time(self) -> float:
        if not len(self):
            return 0.0
        return float(self._timestamps_cached()[0])

    @property
    def end_time(self) -> float:
        if not len(self):
            return 0.0
        return float(self._timestamps_cached()[-1])

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def filter(self, predicate) -> "PacketTrace":
        """A new trace containing only packets for which ``predicate`` is true."""
        return PacketTrace((p for p in self._materialized() if predicate(p)), vca=self.vca)

    def filter_media(self, *media_types: MediaType) -> "PacketTrace":
        """Ground-truth media filter (evaluation only)."""
        wanted = set(media_types)
        return self.filter(lambda p: p.media_type in wanted)

    def without_rtp(self) -> "PacketTrace":
        """The trace as seen by an IP/UDP-only monitor (RTP headers stripped)."""
        return PacketTrace((p.without_rtp() for p in self._materialized()), vca=self.vca)

    def without_ground_truth(self) -> "PacketTrace":
        """The trace with simulator annotations removed."""
        return PacketTrace((p.without_ground_truth() for p in self._materialized()), vca=self.vca)

    def time_slice(self, start: float, end: float) -> "PacketTrace":
        """Packets with ``start <= timestamp < end`` (binary search, O(log n)).

        When the trace's columnar block exists, repeated slicing (as in
        windowing) costs a binary search plus O(1) array views per call; the
        resulting trace materializes packet objects only if asked for them.
        """
        times = self._timestamps_cached()
        lo = int(np.searchsorted(times, start, side="left"))
        hi = int(np.searchsorted(times, end, side="left"))
        return self.time_slice_by_index(lo, hi)

    def shifted(self, offset: float) -> "PacketTrace":
        """A copy with every timestamp shifted by ``offset`` seconds."""
        from dataclasses import replace

        return PacketTrace(
            (replace(p, timestamp=p.timestamp + offset) for p in self._materialized()),
            vca=self.vca,
        )

    def normalized(self) -> "PacketTrace":
        """A copy with timestamps re-based so the first packet arrives at t=0."""
        if not len(self):
            return PacketTrace([], vca=self.vca)
        return self.shifted(-self.start_time)

    # -- statistics -----------------------------------------------------------

    def interarrival_times(self) -> np.ndarray:
        """Consecutive arrival-time differences (empty for <2 packets)."""
        if len(self) < 2:
            return np.array([], dtype=float)
        return np.diff(self.timestamps)

    def stats(self) -> TraceStats:
        """Aggregate statistics for the whole trace."""
        if not len(self):
            return TraceStats(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
        sizes = self.sizes
        iats = self.interarrival_times()
        return TraceStats(
            n_packets=len(self),
            n_bytes=int(sizes.sum()),
            duration=self.duration,
            start_time=self.start_time,
            end_time=self.end_time,
            mean_packet_size=float(sizes.mean()),
            mean_interarrival=float(iats.mean()) if len(iats) else 0.0,
        )

    def iter_windows(self, window: float, start: float | None = None, end: float | None = None):
        """Yield ``(window_start, PacketTrace)`` pairs covering [start, end).

        Windows are aligned to ``start`` (default: trace start) and have a
        fixed duration; empty windows are yielded too so that per-second
        estimates line up with the webrtc-internals ground truth rows even
        when no packets arrived in a second.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        if not len(self):
            return
        if start is None:
            start = self.start_time
        if end is None:
            end = self.end_time
        times = self._timestamps_cached()
        for _, t, next_t in window_grid(start, window, end):
            lo = int(np.searchsorted(times, t, side="left"))
            hi = int(np.searchsorted(times, next_t, side="left"))
            yield t, self.time_slice_by_index(lo, hi)

    def time_slice_by_index(self, lo: int, hi: int) -> "PacketTrace":
        """The sub-trace of rows ``[lo, hi)`` (positions, not timestamps)."""
        if self._packets is None:
            return PacketTrace.from_block(self._block[lo:hi], vca=self.vca)
        sliced = PacketTrace.__new__(PacketTrace)
        sliced._packets = self._packets[lo:hi]
        sliced._block = self._block[lo:hi] if self._block is not None else None
        sliced._times = None
        sliced.vca = self.vca
        return sliced
