"""Flat-buffer codec for per-flow streaming state: the migration wire format.

Elastic sharding (PR 7) moves a *live* flow between shard workers without
disturbing the determinism contract: the old shard drains the flow into a
snapshot, the new shard restores it, and pushes resume exactly where they
left off.  This module is that snapshot — one
:class:`~repro.core.streaming._FlowStream` (reorder buffer / delay line,
frame-assembler lookback state, open-window feature accumulators and frame
buckets, window cursor and watermark) encoded into one contiguous
little-endian buffer in the :mod:`~repro.net.estwire` style.

Layout (every section padded to an 8-byte boundary)::

    header | scalars | meta JSON | pending_ts | pending_seqs | pending_sizes |
    acc_sizes | acc_iats | acc_unique | frame_indices | frame_windows |
    frame_open | frame_n_packets | frame_size_bytes | frame_raw_bytes |
    frame_start_ts | frame_end_ts | recent_ts | recent_sizes | recent_frames

The header is ``_HEADER`` (magic, version, flags, reorder-buffer row count,
meta length).  Every float scalar and column is raw ``<f8`` — nothing is
formatted or re-parsed — so accumulator state round-trips
**bit-identically**, NaN and ±inf included.  The meta blob carries the flow
key, the engine-level :class:`~repro.net.flows.FlowStats` counters, and the
variable-section row counts.

Buffered packets degrade to ``(timestamp, payload_size)`` rows on restore —
exactly the :class:`~repro.net.block._BlockRow` degradation the columnar
transport already applies — which is value-equivalent for everything the
estimator computes (assembly compares ``payload_size``; features read
``media_payload_size`` / ``timestamp``).  Frames travel as one aggregate
row each (version 2: ``n_packets`` / ``size_bytes`` / ``raw_size_bytes`` /
``start_time`` / ``end_time``), matching the aggregate-only frames the
vectorized assembler produces — per-packet frame columns no longer exist.
Frame-assembler object identity (the lookback deque references the *same*
open-frame objects as the open table) is rebuilt structurally from the
``recent_frames`` column.

A snapshot only captures state that is stable between engine ticks;
:meth:`FlowSnapshot.from_stream` refuses mid-tick streams
(``trigger_pos is not None``), and :meth:`apply_to` refuses mode or
window-grid mismatches so a snapshot can never be replayed into an engine
that would interpret it differently.
"""

from __future__ import annotations

import json
import struct
from collections import deque

import numpy as np

from repro.core.features import IPUDPFeatureAccumulator
from repro.core.frame_assembly import AssembledFrame
from repro.net.block import _BlockRow
from repro.net.flows import FlowKey, FlowStats

__all__ = ["FlowSnapshot"]

_MAGIC = b"FLW1"
_VERSION = 2
#: magic, version, flags, n_pending (reorder-buffer rows), meta_len.
_HEADER = struct.Struct("<4sHHqq")

_FLAG_TRAINED = 1 << 0
_FLAG_WATERMARK = 1 << 1
_FLAG_LAST_SEEN = 1 << 2
_FLAG_ACC = 1 << 3
_FLAG_ACC_TS = 1 << 4

#: Fixed scalar section: window_s, start, watermark, last_seen,
#: acc_last_timestamp, acc_byte_sum, acc_size_min, acc_size_max (doubles);
#: seq, next_window, acc_index, acc_n, acc_microbursts, asm_next_index
#: (signed 64-bit).  112 bytes, 8-aligned.
_SCALARS = struct.Struct("<8d6q")

_F8 = np.dtype("<f8")
_I8 = np.dtype("<i8")
_I1 = np.dtype("<i1")


def _pad8(n: int) -> int:
    """Round ``n`` up to the next multiple of 8 (section alignment)."""
    return (n + 7) & ~7


def _flow_to_wire(flow: FlowKey | None) -> list | None:
    if flow is None:
        return None
    return [flow.src, flow.src_port, flow.dst, flow.dst_port, flow.protocol]


def _flow_from_wire(row: list | None) -> FlowKey | None:
    if row is None:
        return None
    return FlowKey(*row)


class FlowSnapshot:
    """A captured :class:`~repro.core.streaming._FlowStream`, codec included.

    Construct with :meth:`from_stream` (origin shard) or :meth:`read_from`
    (destination shard); ``__init__`` is the trusted field-level constructor
    shared by both and performs no validation or copying.  Apply to a
    freshly created stream of the *same* pipeline configuration with
    :meth:`apply_to`.
    """

    __slots__ = (
        "flow",
        "stats",
        "trained",
        "window_s",
        "start",
        "seq",
        "next_window",
        "watermark",
        "last_seen",
        "pending_ts",
        "pending_seqs",
        "pending_sizes",
        "acc_index",
        "acc_n",
        "acc_byte_sum",
        "acc_size_min",
        "acc_size_max",
        "acc_microbursts",
        "acc_last_timestamp",
        "acc_sizes",
        "acc_iats",
        "acc_unique",
        "asm_next_index",
        "frame_indices",
        "frame_windows",
        "frame_open",
        "frame_n_packets",
        "frame_size_bytes",
        "frame_raw_bytes",
        "frame_start_ts",
        "frame_end_ts",
        "recent_ts",
        "recent_sizes",
        "recent_frames",
        "_meta_cache",
    )

    def __init__(
        self,
        flow: FlowKey | None,
        stats: tuple | None,
        trained: bool,
        window_s: float,
        start: float,
        seq: int,
        next_window: int,
        watermark: float | None,
        last_seen: float | None,
        pending_ts: np.ndarray,
        pending_seqs: np.ndarray,
        pending_sizes: np.ndarray,
        acc_index: int,
        acc_n: int,
        acc_byte_sum: float,
        acc_size_min: float,
        acc_size_max: float,
        acc_microbursts: int,
        acc_last_timestamp: float | None,
        acc_sizes: np.ndarray,
        acc_iats: np.ndarray,
        acc_unique: np.ndarray,
        asm_next_index: int,
        frame_indices: np.ndarray,
        frame_windows: np.ndarray,
        frame_open: np.ndarray,
        frame_n_packets: np.ndarray,
        frame_size_bytes: np.ndarray,
        frame_raw_bytes: np.ndarray,
        frame_start_ts: np.ndarray,
        frame_end_ts: np.ndarray,
        recent_ts: np.ndarray,
        recent_sizes: np.ndarray,
        recent_frames: np.ndarray,
    ) -> None:
        self.flow = flow
        self.stats = stats
        self.trained = trained
        self.window_s = window_s
        self.start = start
        self.seq = seq
        self.next_window = next_window
        self.watermark = watermark
        self.last_seen = last_seen
        self.pending_ts = pending_ts
        self.pending_seqs = pending_seqs
        self.pending_sizes = pending_sizes
        self.acc_index = acc_index
        self.acc_n = acc_n
        self.acc_byte_sum = acc_byte_sum
        self.acc_size_min = acc_size_min
        self.acc_size_max = acc_size_max
        self.acc_microbursts = acc_microbursts
        self.acc_last_timestamp = acc_last_timestamp
        self.acc_sizes = acc_sizes
        self.acc_iats = acc_iats
        self.acc_unique = acc_unique
        self.asm_next_index = asm_next_index
        self.frame_indices = frame_indices
        self.frame_windows = frame_windows
        self.frame_open = frame_open
        self.frame_n_packets = frame_n_packets
        self.frame_size_bytes = frame_size_bytes
        self.frame_raw_bytes = frame_raw_bytes
        self.frame_start_ts = frame_start_ts
        self.frame_end_ts = frame_end_ts
        self.recent_ts = recent_ts
        self.recent_sizes = recent_sizes
        self.recent_frames = recent_frames
        self._meta_cache: bytes | None = None

    # -- capture ---------------------------------------------------------------

    @classmethod
    def from_stream(
        cls, flow: FlowKey | None, stream: _FlowStream, stats: FlowStats | None = None
    ) -> "FlowSnapshot":
        """Capture one live ``_FlowStream`` (does not mutate the stream).

        ``stats`` is the engine-level flow-table entry that travels with the
        flow so the destination keeps counting packets/bytes from the right
        baseline.
        """
        if stream.trigger_pos is not None:
            raise RuntimeError("cannot snapshot a flow mid-tick (trigger_pos set)")
        trained = stream.assembler is None

        pending = sorted(stream._pending)
        pending_ts = np.array([entry[0] for entry in pending], dtype=_F8)
        pending_seqs = np.array([entry[1] for entry in pending], dtype=_I8)
        pending_sizes = np.array([entry[2].payload_size for entry in pending], dtype=_I8)

        acc = stream._acc
        if acc is not None:
            acc_state = dict(
                acc_index=stream._acc_index,
                acc_n=acc.n,
                acc_byte_sum=acc.byte_sum,
                acc_size_min=acc.size_min,
                acc_size_max=acc.size_max,
                acc_microbursts=acc.microbursts,
                acc_last_timestamp=acc._last_timestamp,
                acc_sizes=np.array(acc.sizes, dtype=_F8),
                acc_iats=np.array(acc.iats, dtype=_F8),
                acc_unique=np.array(sorted(acc.unique_sizes), dtype=_I8),
            )
        else:
            acc_state = dict(
                acc_index=-1,
                acc_n=0,
                acc_byte_sum=0.0,
                acc_size_min=0.0,
                acc_size_max=0.0,
                acc_microbursts=0,
                acc_last_timestamp=None,
                acc_sizes=np.empty(0, dtype=_F8),
                acc_iats=np.empty(0, dtype=_F8),
                acc_unique=np.empty(0, dtype=_I8),
            )

        frame_indices: list[int] = []
        frame_windows: list[int] = []
        frame_open: list[int] = []
        frame_n_packets: list[int] = []
        frame_size_bytes: list[int] = []
        frame_raw_bytes: list[int] = []
        frame_start_ts: list[float] = []
        frame_end_ts: list[float] = []
        recent_ts: list[float] = []
        recent_sizes: list[int] = []
        recent_frames: list[int] = []
        asm_next_index = 0
        if not trained:
            def record(frame: AssembledFrame, window: int, is_open: bool) -> None:
                frame_indices.append(frame.frame_index)
                frame_windows.append(window)
                frame_open.append(1 if is_open else 0)
                frame_n_packets.append(frame.n_packets)
                frame_size_bytes.append(frame.size_bytes)
                frame_raw_bytes.append(frame.raw_size_bytes)
                frame_start_ts.append(frame.start_time)
                frame_end_ts.append(frame.end_time)

            for window, frames in stream._frame_buckets.items():
                for frame in frames:
                    record(frame, window, is_open=False)
            assembler = stream.assembler
            for frame in assembler._open.values():
                record(frame, -1, is_open=True)
            for ts, size, frame in assembler._recent:
                recent_ts.append(ts)
                recent_sizes.append(size)
                recent_frames.append(frame.frame_index)
            asm_next_index = assembler._next_index

        return cls(
            flow=flow,
            stats=None
            if stats is None
            else (stats.packets, stats.bytes, stats.first_seen, stats.last_seen),
            trained=trained,
            window_s=stream.window_s,
            start=stream.start,
            seq=stream._seq,
            next_window=stream._next_window,
            watermark=stream._watermark,
            last_seen=stream.last_seen,
            pending_ts=pending_ts,
            pending_seqs=pending_seqs,
            pending_sizes=pending_sizes,
            asm_next_index=asm_next_index,
            frame_indices=np.array(frame_indices, dtype=_I8),
            frame_windows=np.array(frame_windows, dtype=_I8),
            frame_open=np.array(frame_open, dtype=_I1),
            frame_n_packets=np.array(frame_n_packets, dtype=_I8),
            frame_size_bytes=np.array(frame_size_bytes, dtype=_I8),
            frame_raw_bytes=np.array(frame_raw_bytes, dtype=_I8),
            frame_start_ts=np.array(frame_start_ts, dtype=_F8),
            frame_end_ts=np.array(frame_end_ts, dtype=_F8),
            recent_ts=np.array(recent_ts, dtype=_F8),
            recent_sizes=np.array(recent_sizes, dtype=_I8),
            recent_frames=np.array(recent_frames, dtype=_I8),
            **acc_state,
        )

    # -- restore ---------------------------------------------------------------

    def apply_to(self, stream: _FlowStream) -> None:
        """Load this snapshot into a freshly created ``_FlowStream``.

        The stream must come from ``_make_stream`` on an engine with the same
        pipeline configuration (mode and window grid are checked; everything
        else is the restoring engine's responsibility).
        """
        if (self.window_s != stream.window_s) or (self.start != stream.start):
            raise ValueError(
                "flow snapshot window grid mismatch: "
                f"snapshot ({self.window_s}, {self.start}) vs "
                f"stream ({stream.window_s}, {stream.start})"
            )
        trained_target = stream.assembler is None
        if self.trained != trained_target:
            raise ValueError(
                f"flow snapshot mode mismatch: snapshot is "
                f"{'trained' if self.trained else 'heuristic'}, stream is "
                f"{'trained' if trained_target else 'heuristic'}"
            )

        stream._seq = self.seq
        stream._next_window = self.next_window
        stream._watermark = self.watermark
        stream.last_seen = self.last_seen
        # Stored sorted by (timestamp, seq) => a valid heap as-is, and pop
        # order matches the origin's (the (ts, seq) order is total).
        stream._pending = [
            (float(ts), int(seq), _BlockRow(float(ts), int(size)))
            for ts, seq, size in zip(self.pending_ts, self.pending_seqs, self.pending_sizes)
        ]

        if self.trained:
            if self.acc_index >= 0 or len(self.acc_sizes):
                acc = IPUDPFeatureAccumulator(stream.window_s, classifier=stream.classifier)
                acc.n = self.acc_n
                acc.byte_sum = self.acc_byte_sum
                acc.size_min = self.acc_size_min
                acc.size_max = self.acc_size_max
                acc.unique_sizes = set(int(s) for s in self.acc_unique)
                acc.microbursts = self.acc_microbursts
                acc._last_timestamp = self.acc_last_timestamp
                acc.load_buffers(self.acc_sizes, self.acc_iats)
                stream._acc = acc
                stream._acc_index = self.acc_index
            return

        assembler = stream.assembler
        open_frames: dict[int, AssembledFrame] = {}
        for i in range(len(self.frame_indices)):
            frame = AssembledFrame._from_aggregates(
                frame_index=int(self.frame_indices[i]),
                n_packets=int(self.frame_n_packets[i]),
                size_bytes=int(self.frame_size_bytes[i]),
                raw_size_bytes=int(self.frame_raw_bytes[i]),
                start_time=float(self.frame_start_ts[i]),
                end_time=float(self.frame_end_ts[i]),
            )
            if self.frame_open[i]:
                open_frames[frame.frame_index] = frame
                assembler._open[frame.frame_index] = frame
            else:
                stream._frame_buckets.setdefault(int(self.frame_windows[i]), []).append(frame)
        recent: deque = deque()
        live: dict[int, int] = {}
        for ts, size, frame_index in zip(self.recent_ts, self.recent_sizes, self.recent_frames):
            frame = open_frames.get(int(frame_index))
            if frame is None:
                raise ValueError("corrupt flow snapshot: lookback row references a non-open frame")
            recent.append((float(ts), int(size), frame))
            live[frame.frame_index] = live.get(frame.frame_index, 0) + 1
        if set(live) != set(open_frames):
            raise ValueError("corrupt flow snapshot: open frame without a lookback reference")
        assembler._recent = recent
        assembler._live = live
        assembler._next_index = self.asm_next_index

    # -- flat-buffer codec -----------------------------------------------------

    def _columns(self) -> tuple[tuple[np.ndarray, np.dtype], ...]:
        return (
            (self.pending_ts, _F8),
            (self.pending_seqs, _I8),
            (self.pending_sizes, _I8),
            (self.acc_sizes, _F8),
            (self.acc_iats, _F8),
            (self.acc_unique, _I8),
            (self.frame_indices, _I8),
            (self.frame_windows, _I8),
            (self.frame_open, _I1),
            (self.frame_n_packets, _I8),
            (self.frame_size_bytes, _I8),
            (self.frame_raw_bytes, _I8),
            (self.frame_start_ts, _F8),
            (self.frame_end_ts, _F8),
            (self.recent_ts, _F8),
            (self.recent_sizes, _I8),
            (self.recent_frames, _I8),
        )

    def _codec_meta(self) -> bytes:
        """Flow identity, flow-table stats, and section counts as JSON."""
        if self._meta_cache is None:
            self._meta_cache = json.dumps(
                {
                    "flow": _flow_to_wire(self.flow),
                    "stats": None if self.stats is None else list(self.stats),
                    "counts": [
                        len(self.acc_sizes),
                        len(self.acc_iats),
                        len(self.acc_unique),
                        len(self.frame_indices),
                        len(self.recent_ts),
                    ],
                },
                separators=(",", ":"),
            ).encode()
        return self._meta_cache

    def byte_size(self) -> int:
        """Encoded size of this snapshot in the flat-buffer layout, in bytes."""
        size = _HEADER.size + _SCALARS.size + _pad8(len(self._codec_meta()))
        for values, dtype in self._columns():
            size += _pad8(len(values) * dtype.itemsize)
        return size

    def write_into(self, buf: _Buffer) -> int:
        """Encode this snapshot into ``buf``; returns the bytes written."""
        meta = self._codec_meta()
        total = self.byte_size()
        mv = memoryview(buf)
        if len(mv) < total:
            raise ValueError(f"buffer too small: need {total} bytes, have {len(mv)}")
        flags = 0
        if self.trained:
            flags |= _FLAG_TRAINED
        if self.watermark is not None:
            flags |= _FLAG_WATERMARK
        if self.last_seen is not None:
            flags |= _FLAG_LAST_SEEN
        if self.acc_index >= 0 or len(self.acc_sizes):
            flags |= _FLAG_ACC
        if self.acc_last_timestamp is not None:
            flags |= _FLAG_ACC_TS
        _HEADER.pack_into(mv, 0, _MAGIC, _VERSION, flags, len(self.pending_ts), len(meta))
        offset = _HEADER.size
        _SCALARS.pack_into(
            mv,
            offset,
            self.window_s,
            self.start,
            0.0 if self.watermark is None else self.watermark,
            0.0 if self.last_seen is None else self.last_seen,
            0.0 if self.acc_last_timestamp is None else self.acc_last_timestamp,
            self.acc_byte_sum,
            self.acc_size_min,
            self.acc_size_max,
            self.seq,
            self.next_window,
            self.acc_index,
            self.acc_n,
            self.acc_microbursts,
            self.asm_next_index,
        )
        offset += _SCALARS.size
        mv[offset : offset + len(meta)] = meta
        offset += _pad8(len(meta))
        for values, dtype in self._columns():
            n = len(values)
            if n:
                dest = np.frombuffer(mv, dtype=dtype, count=n, offset=offset)
                dest[:] = values
            offset += _pad8(n * dtype.itemsize)
        return total

    def to_bytes(self) -> bytes:
        """Encode into a fresh buffer (convenience over :meth:`write_into`)."""
        buf = bytearray(self.byte_size())
        self.write_into(buf)
        return bytes(buf)

    @classmethod
    def read_from(cls, buf: _Buffer) -> "FlowSnapshot":
        """Decode a snapshot from ``buf``; validates structure, raises ValueError."""
        mv = memoryview(buf)
        if len(mv) < _HEADER.size + _SCALARS.size:
            raise ValueError("flow snapshot buffer shorter than its header")
        magic, version, flags, n_pending, meta_len = _HEADER.unpack_from(mv, 0)
        if magic != _MAGIC:
            raise ValueError(f"bad flow snapshot magic: {magic!r}")
        if version != _VERSION:
            raise ValueError(f"unsupported flow snapshot version: {version}")
        if n_pending < 0 or meta_len < 0:
            raise ValueError("corrupt flow snapshot header: negative count")
        offset = _HEADER.size
        scalars = _SCALARS.unpack_from(mv, offset)
        offset += _SCALARS.size
        (
            window_s,
            start,
            watermark,
            last_seen,
            acc_last_timestamp,
            acc_byte_sum,
            acc_size_min,
            acc_size_max,
            seq,
            next_window,
            acc_index,
            acc_n,
            acc_microbursts,
            asm_next_index,
        ) = scalars
        if len(mv) < offset + meta_len:
            raise ValueError("flow snapshot buffer truncated inside the meta blob")
        try:
            meta = json.loads(bytes(mv[offset : offset + meta_len]).decode())
            counts = meta["counts"]
            flow = _flow_from_wire(meta["flow"])
            stats = meta["stats"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"corrupt flow snapshot meta blob: {exc}") from exc
        if len(counts) != 5 or any((not isinstance(c, int)) or c < 0 for c in counts):
            raise ValueError(f"corrupt flow snapshot meta: bad section counts {counts!r}")
        n_acc_sizes, n_acc_iats, n_acc_unique, n_frames, n_recent = counts
        offset += _pad8(meta_len)

        lengths = (
            (n_pending, _F8),
            (n_pending, _I8),
            (n_pending, _I8),
            (n_acc_sizes, _F8),
            (n_acc_iats, _F8),
            (n_acc_unique, _I8),
            (n_frames, _I8),
            (n_frames, _I8),
            (n_frames, _I1),
            (n_frames, _I8),
            (n_frames, _I8),
            (n_frames, _I8),
            (n_frames, _F8),
            (n_frames, _F8),
            (n_recent, _F8),
            (n_recent, _I8),
            (n_recent, _I8),
        )
        total = offset + sum(_pad8(n * dtype.itemsize) for n, dtype in lengths)
        if len(mv) < total:
            raise ValueError(
                f"flow snapshot buffer truncated: need {total} bytes, have {len(mv)}"
            )

        columns = []
        for n, dtype in lengths:
            columns.append(np.frombuffer(mv, dtype=dtype, count=n, offset=offset))
            offset += _pad8(n * dtype.itemsize)
        (
            pending_ts,
            pending_seqs,
            pending_sizes,
            acc_sizes,
            acc_iats,
            acc_unique,
            frame_indices,
            frame_windows,
            frame_open,
            frame_n_packets,
            frame_size_bytes,
            frame_raw_bytes,
            frame_start_ts,
            frame_end_ts,
            recent_ts,
            recent_sizes,
            recent_frames,
        ) = columns
        if n_frames and int(frame_n_packets.min()) < 1:
            raise ValueError("corrupt flow snapshot: empty assembled frame")

        return cls(
            flow=flow,
            stats=None if stats is None else tuple(stats),
            trained=bool(flags & _FLAG_TRAINED),
            window_s=window_s,
            start=start,
            seq=seq,
            next_window=next_window,
            watermark=watermark if flags & _FLAG_WATERMARK else None,
            last_seen=last_seen if flags & _FLAG_LAST_SEEN else None,
            pending_ts=pending_ts,
            pending_seqs=pending_seqs,
            pending_sizes=pending_sizes,
            acc_index=acc_index if flags & _FLAG_ACC else -1,
            acc_n=acc_n,
            acc_byte_sum=acc_byte_sum,
            acc_size_min=acc_size_min,
            acc_size_max=acc_size_max,
            acc_microbursts=acc_microbursts,
            acc_last_timestamp=acc_last_timestamp if flags & _FLAG_ACC_TS else None,
            acc_sizes=acc_sizes,
            acc_iats=acc_iats,
            acc_unique=acc_unique,
            asm_next_index=asm_next_index,
            frame_indices=frame_indices,
            frame_windows=frame_windows,
            frame_open=frame_open,
            frame_n_packets=frame_n_packets,
            frame_size_bytes=frame_size_bytes,
            frame_raw_bytes=frame_raw_bytes,
            frame_start_ts=frame_start_ts,
            frame_end_ts=frame_end_ts,
            recent_ts=recent_ts,
            recent_sizes=recent_sizes,
            recent_frames=recent_frames,
        )
