"""Streaming per-flow QoE estimation engine (the deployable architecture).

The paper's deployment target is a passive monitor in the middle of the
network: packets of many concurrent VCA sessions arrive interleaved, one at a
time, and the operator wants per-second QoE estimates per session *as the
call is happening*.  :class:`StreamingQoEPipeline` is that engine:

* packets are consumed from any iterator (live capture, pcap reader,
  :class:`~repro.net.trace.PacketTrace`) in a **single pass**;
* traffic is demultiplexed by unidirectional 5-tuple, one independent
  estimation stream per flow: one registry keyed by the plain header tuple
  ``(src, src_port, dst, dst_port, protocol)``, whose streams each hold the
  flow's :class:`~repro.net.flows.FlowKey`, built once when it is first
  seen;
* each flow stream runs the same operators as the batch pipeline -- media
  classification, then online frame assembly (Algorithm 1) or the IP/UDP
  features of Table 1 -- and emits a
  :class:`~repro.core.pipeline.PipelineEstimate` the moment a window can no
  longer change;
* retained state is **O(window)** per flow: a reorder buffer bounded by the
  assembler lookback, plus either the assembler's lookback state and the
  frame end times of the open windows (heuristic) or the open window's video
  ``(timestamp, size)`` rows (trained).  Nothing scales with trace length.

Both modes run one tick per :meth:`~StreamingQoEPipeline.push_block`: one
segmented pass over every flow of the block (demux, reorder delay line, one
``video_mask``), then a per-window reducer -- Algorithm 1 and the heuristic
estimate, or the trained forests.  A flow stream hands its closed trained
windows back as raw rows; the engine resolves every window a call closes
with one :func:`~repro.core.features.window_features` pass and one walk of
the stacked forests.

:meth:`QoEPipeline.estimate <repro.core.pipeline.QoEPipeline.estimate>` is a
thin batch adapter over this engine's columnar :meth:`~StreamingQoEPipeline.push_block`
tick -- the one the monitors deploy -- so the batch and streaming paths
cannot diverge.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, repeat
from time import perf_counter
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.features import window_features
from repro.core.frame_assembly import AssembledFrame, FrameAssembler, assemble_segments
from repro.core.heuristic import window_estimate
from repro.core.media import MediaClassifier
from repro.net.block import PacketBlock, _BlockRow
from repro.net.flows import FlowKey
from repro.net.packet import RTP_FIXED_HEADER_LEN, Packet
from repro.net.trace import PacketTrace

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.core.pipeline import PipelineEstimate, QoEPipeline
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "StreamEstimate",
    "StreamingQoEPipeline",
    "add_counters",
    "engine_counters",
    "window_index",
    "window_indices",
]

_PIPELINE_ESTIMATE_CLS = None

#: A closed trained-mode window before inference: its start and its video
#: packets' timestamps and payload sizes, in timestamp order.
_ClosedWindow = tuple[float, list[float], list[int]]
#: What a flow stream emits per closed window: the heuristic estimate, or a
#: trained window the engine resolves (see ``StreamingQoEPipeline._resolve``).
_Closed = Union["PipelineEstimate", _ClosedWindow]


def _pipeline_estimate_cls():
    """Late-bound :class:`~repro.core.pipeline.PipelineEstimate` (circular
    import at module load), cached so the per-window emit path doesn't pay
    the import-machinery lookup on every call."""
    global _PIPELINE_ESTIMATE_CLS
    if _PIPELINE_ESTIMATE_CLS is None:
        from repro.core.pipeline import PipelineEstimate

        _PIPELINE_ESTIMATE_CLS = PipelineEstimate
    return _PIPELINE_ESTIMATE_CLS


def engine_counters() -> dict:
    """A zeroed set of the engine's always-on slow-path and drop counters.

    ``scalar_fallback_rows`` counts block rows that took the per-packet
    fallback, by reason: ``disordered`` (the flow's run is out of order or
    backdates its reorder buffer or watermark) and ``liveness`` (a
    ``max_frame_age_s`` sweep could fire inside it).
    ``late_reorder_dropped`` counts packets dropped for arriving later than
    ``reorder_depth`` can absorb.
    """
    return {"scalar_fallback_rows": {"disordered": 0, "liveness": 0}, "late_reorder_dropped": 0}


def add_counters(total: dict, part: dict) -> dict:
    """Add the (nested) counters ``part`` into ``total``; returns ``total``."""
    for name, value in part.items():
        if isinstance(value, dict):
            add_counters(total.setdefault(name, {}), value)
        else:
            total[name] = total.get(name, 0) + value
    return total


def window_index(timestamp: float, start: float, window_s: float) -> int:
    """The window ``k`` with ``start + k*window_s <= timestamp < start + (k+1)*window_s``.

    Uses the same boundary arithmetic (index multiplication) as the batch
    windowing, with an explicit adjustment step so float round-off in the
    division can never place a timestamp on the wrong side of a boundary.
    """
    k = int(math.floor((timestamp - start) / window_s))
    while timestamp >= start + (k + 1) * window_s:
        k += 1
    while k > 0 and timestamp < start + k * window_s:
        k -= 1
    return k


def window_indices(timestamps: np.ndarray, start: float, window_s: float) -> np.ndarray:
    """Vectorized :func:`window_index` over a float64 timestamp array.

    Identical arithmetic (float64 division, floor, and the two boundary
    adjustment sweeps), so every element agrees with the scalar function to
    the last ulp -- the block path's windows land exactly where the
    per-packet path's do.
    """
    k = np.floor((timestamps - start) / window_s).astype(np.int64)
    while True:
        overshoot = timestamps >= start + (k + 1) * window_s
        if not overshoot.any():
            break
        k[overshoot] += 1
    while True:
        undershoot = (k > 0) & (timestamps < start + k * window_s)
        if not undershoot.any():
            break
        k[undershoot] -= 1
    return k


@dataclass(frozen=True, slots=True)
class StreamEstimate:
    """A per-window estimate emitted by the streaming engine for one flow.

    ``flow`` is the unidirectional 5-tuple the estimate belongs to, or
    ``None`` when the engine runs in single-flow mode (``demux_flows=False``).

    The sharded monitor's return path ships these in columnar batches (see
    :class:`~repro.net.estwire.EstimateBatch`): a worker's tick emissions are
    flat-encoded into a shared-memory ring slot and rebuilt on the parent
    side bit-identically, so the estimates a sink observes never depend on
    the transport.
    """

    flow: FlowKey | None
    estimate: "PipelineEstimate"

    @classmethod
    def _from_wire(cls, flow: FlowKey | None, estimate: "PipelineEstimate") -> "StreamEstimate":
        """Trusted fast constructor for decoded wire rows (see
        :meth:`PipelineEstimate._from_wire
        <repro.core.pipeline.PipelineEstimate._from_wire>`)."""
        item = object.__new__(cls)
        object.__setattr__(item, "flow", flow)
        object.__setattr__(item, "estimate", estimate)
        return item


class _FlowStream:
    """Per-flow streaming state: reorder buffer, online operators, open windows.

    All retained state is bounded: the reorder buffer holds at most
    ``reorder_depth`` packets, the assembler keeps ``lookback`` assignments,
    and only windows that are still open hold frame end times or video rows
    (dropped the moment the window closes).
    """

    def __init__(
        self,
        flow: FlowKey | None,
        config: PipelineConfig,
        classifier: MediaClassifier,
        assembler: FrameAssembler | None,
        counters: dict,
    ) -> None:
        assert config.reorder_depth is not None, "engine must resolve reorder_depth"
        #: The flow every estimate of this stream is tagged with (``None`` in
        #: single-flow mode).
        self.flow = flow
        #: The engine's slow-path / drop counters (shared by every stream).
        self.counters = counters
        self.window_s = config.window_s
        self.start = config.start
        self.reorder_depth = config.reorder_depth
        self.max_frame_age_s = config.max_frame_age_s
        self.backfill_limit = config.backfill_limit
        self.classifier = classifier
        #: Online frame assembler (heuristic mode) -- one per flow; ``None``
        #: -> trained mode.
        self.assembler = assembler
        # Reorder buffer: ``(timestamp, seq, payload_size, packet)`` heap
        # entries; the block path buffers rows with ``packet=None``.
        self._pending: list[tuple[float, int, int, Packet | None]] = []
        self._seq = 0
        self._watermark: float | None = None
        #: Arrival time of the newest packet ever pushed (unlike the
        #: watermark, set even while everything still sits in the reorder
        #: buffer) -- the idle-eviction signal.
        self.last_seen: float | None = None
        self._next_window = 0
        # End of window _next_window: the heuristic close check runs only
        # once the watermark reaches it.
        self._next_end = self.start + self.window_s
        # Heuristic mode: the finalized frames of each open window, as the
        # only two things its estimate reads -- their end times and their
        # total media bytes -- keyed by the window their end time falls in;
        # dropped when the window is emitted.
        self._window_ends: dict[int, list[float]] = {}
        self._window_bytes: dict[int, int] = {}
        # Trained mode: the video rows of the one open window, which is
        # window _next_window -- released packets arrive in timestamp order,
        # and a release closes every window before its own.
        self._open_ts: list[float] = []
        self._open_sz: list[int] = []

    # -- introspection (used by the memory-bound tests) ------------------------

    @property
    def buffered_packets(self) -> int:
        return len(self._pending)

    @property
    def open_windows(self) -> int:
        if self.assembler is not None:
            return len(self._window_ends)
        # Trained: from the first release until the flush closes it.
        watermark = self._watermark
        return int(watermark is not None and self.next_window_start <= watermark)

    @property
    def next_window_start(self) -> float:
        """Start of the earliest window this flow could still emit."""
        return self.start + self._next_window * self.window_s

    # -- streaming -------------------------------------------------------------

    def push(self, packet: Packet) -> list[_Closed]:
        """Feed one packet; returns any windows that closed."""
        timestamp = packet.timestamp
        if self.last_seen is None or timestamp > self.last_seen:
            self.last_seen = timestamp
        entry = (timestamp, self._seq, packet.payload_size, packet)
        self._seq += 1
        if len(self._pending) < self.reorder_depth:
            heapq.heappush(self._pending, entry)
            return []
        return self._release(*heapq.heappushpop(self._pending, entry))

    def _push_each(
        self, timestamps: np.ndarray, sizes: np.ndarray, positions: np.ndarray
    ) -> list[tuple[int, _Closed]]:
        """The scalar fallback of the block path: one :meth:`push` per row,
        each closed window tagged with the block row that closed it."""
        out: list[tuple[int, _Closed]] = []
        for i in range(len(timestamps)):
            pos = int(positions[i])
            for closed in self.push(_BlockRow(float(timestamps[i]), int(sizes[i]))):
                out.append((pos, closed))
        return out

    def _close_rows(
        self,
        rel_k: list[int],
        rs: int,
        re: int,
        triggers: list[int],
        v_k: list[int],
        v_ts: list[float],
        v_sz: list[int],
        vlo: int,
        vhi: int,
    ) -> list[tuple[int, _ClosedWindow]]:
        """Commit one flow's released rows of a trained segmented tick.

        ``rel_k[rs:re]`` are the windows of the flow's released rows (row
        ``r`` released by the push of block row ``triggers[r]``);
        ``v_k`` / ``v_ts`` / ``v_sz[vlo:vhi]`` are its released video rows.
        Released row ``r`` closes windows ``[max(_next_window, rel_k[r-1]),
        rel_k[r])`` -- what per-packet :meth:`_release_trained` closes, with
        the same trigger; video rows join the open window.
        """
        out: list[tuple[int, _ClosedWindow]] = []
        first = self._next_window
        r = rs
        a = bisect_left(v_k, first, vlo, vhi)  # rows of closed windows are stale
        for k in range(first, rel_k[re - 1]):
            r = bisect_right(rel_k, k, r, re)
            b = bisect_right(v_k, k, a, vhi)
            self._open_ts += v_ts[a:b]
            self._open_sz += v_sz[a:b]
            out.append((triggers[r], self._emit(k)))
            a = b
        self._open_ts += v_ts[a:vhi]
        self._open_sz += v_sz[a:vhi]
        return out

    def _replay_closes(
        self,
        rel_ts: list[float],
        rel_lo: int,
        rel_hi: int,
        triggers: list[int],
        spans: list[tuple[int, int, "int | None", float, int]],
        occ_rel: list[int],
        occ_ts: list[float],
        fins: list[tuple[int, int, float, int]],
    ) -> list[tuple[int, "PipelineEstimate"]]:
        """Replay :meth:`_close_ready` over one committed heuristic run.

        ``rel_ts[rel_lo:rel_hi]`` are the run's released timestamps; released
        row ``r`` was released by the push of block row
        ``triggers[rel_lo + r]``.  ``spans`` places every frame the run
        touched, as ``(lo, hi, fin_rel, prior_end, first_rel)``: its
        released-row occurrences this run are ``occ_rel[lo:hi]`` (timestamps
        ``occ_ts[lo:hi]``), ``fin_rel`` is the released row whose push
        finalized it (``None`` if it outlives the run), ``prior_end`` its
        ``end_time`` before the run (NaN for a new frame) and ``first_rel``
        its first occurrence (``-1`` for a carried frame).  ``fins`` are the
        finalized frames as ``(fin_rel, window, end_time, size_bytes)`` in
        finalization order.

        Window ``k`` closes at the first released row ``r`` past its end
        where no open frame could still finalize into it, tagged with that
        row's trigger -- the same trigger the per-packet path would have
        used.  Finalized frames bucket in finalization order, interleaved
        with emissions exactly as scalar pushes interleave them, so
        estimates and their order are bit-identical.  ``spans`` are in
        opening order, so each window scans only the frames near its end.
        """
        out: list[tuple[int, PipelineEstimate]] = []
        horizon = rel_ts[rel_hi - 1]
        ev = 0
        n_fins = len(fins)
        done = 0  # spans[:done] finalized before an earlier boundary row
        while True:
            window_end = self._next_end
            if horizon < window_end:
                break
            cross = bisect_left(rel_ts, window_end, rel_lo, rel_hi) - rel_lo
            r = cross
            blocked = False
            while done < len(spans) and spans[done][2] is not None and spans[done][2] <= cross:
                done += 1
            for j in range(done, len(spans)):
                lo, hi, fin_rel, prior_end, first_rel = spans[j]
                if fin_rel is not None and fin_rel <= cross:
                    continue  # already finalized by the time the window ends
                if first_rel > cross:
                    break  # it and every later span open past the boundary
                i = bisect_right(occ_rel, cross, lo, hi) - 1
                end = occ_ts[i] if i >= lo else prior_end
                if end >= window_end:
                    continue
                # The frame blocks window k until it finalizes or gains a
                # packet at/after the boundary row (whose timestamp is then
                # necessarily >= window_end).
                unblock = fin_rel
                if i + 1 < hi:
                    gain = occ_rel[i + 1]
                    unblock = gain if unblock is None else min(unblock, gain)
                if unblock is None:
                    blocked = True  # stays open past the run: window can't close yet
                    break
                if unblock > r:
                    r = unblock
            if blocked:
                break
            while ev < n_fins and fins[ev][0] <= r:
                self._bucket(fins[ev][1], [fins[ev][2]], fins[ev][3])
                ev += 1
            out.append((triggers[rel_lo + r], self._emit(self._next_window)))
        while ev < n_fins:
            self._bucket(fins[ev][1], [fins[ev][2]], fins[ev][3])
            ev += 1
        return out

    def flush(self) -> list[_Closed]:
        """Drain the reorder buffer, finalize open frames, close all windows."""
        closed: list[_Closed] = []
        while self._pending:
            closed.extend(self._release(*heapq.heappop(self._pending)))
        if self._watermark is None:
            return closed
        if self.assembler is not None:
            for frame in self.assembler.flush():
                self._bucket_frame(frame)
        closed.extend(self._close_through(window_index(self._watermark, self.start, self.window_s)))
        return closed

    # -- internals -------------------------------------------------------------

    def _release(self, timestamp: float, _seq: int, size: int, packet: Packet | None) -> list[_Closed]:
        """Process one reorder-buffer entry in (reorder-corrected) timestamp
        order; rows the block path buffered as bare ``(timestamp, size)``
        become a :class:`_BlockRow` only here."""
        if self._watermark is None:
            self._anchor(timestamp)
        elif timestamp < self._watermark:
            # Reordered beyond the buffer's tolerance: the stream has already
            # advanced past this timestamp, so feeding it on would corrupt
            # the (order-sensitive) accumulator and assembler state -- and
            # its window may even have been emitted.  Drop it instead; the
            # batch path never hits this because traces arrive sorted.
            self.counters["late_reorder_dropped"] += 1
            return []
        self._watermark = timestamp
        if packet is None:
            packet = _BlockRow(timestamp, size)
        if self.assembler is None:
            return self._release_trained(packet)
        if self.classifier.is_video(packet):
            for frame in self.assembler.push(packet):
                self._bucket_frame(frame)
        return self._close_ready() if timestamp >= self._next_end else []

    def _anchor(self, first_timestamp: float) -> None:
        # First packet of the flow anchors the grid.  Without a back-fill
        # cap, a flow first seen late on the grid (mid-capture join, or
        # epoch-relative timestamps against start=0) would emit one empty
        # estimate per elapsed window -- billions for an epoch capture.
        if self.backfill_limit is not None:
            first_window = window_index(first_timestamp, self.start, self.window_s)
            self._set_next_window(max(self._next_window, first_window - self.backfill_limit))

    def _set_next_window(self, k: int) -> None:
        self._next_window = k
        self._next_end = self.start + (k + 1) * self.window_s

    def _release_trained(self, packet: Packet) -> list[_Closed]:
        k = window_index(packet.timestamp, self.start, self.window_s)
        # Every window before the packet's own is now immutable (released
        # packets are in timestamp order), so close them immediately.
        closed = self._close_through(k - 1)
        if k == self._next_window and self.classifier.is_video(packet):
            self._open_ts.append(packet.timestamp)
            self._open_sz.append(packet.payload_size)
        return closed

    def _bucket_frame(self, frame: AssembledFrame) -> None:
        end_time = frame._end_time
        self._bucket(window_index(end_time, self.start, self.window_s), [end_time], frame.size_bytes)

    def _bucket(self, k: int, end_times: list[float], size_bytes: int) -> None:
        """File finalized frames of window ``k`` (the window their end times
        fall in) as all a window keeps of them: their end times, in
        finalization order, and their total media bytes."""
        if k < self._next_window:  # frames for already-emitted windows cannot occur
            return
        ends = self._window_ends.get(k)
        if ends is None:
            self._window_ends[k] = end_times
            self._window_bytes[k] = size_bytes
        else:
            ends += end_times
            self._window_bytes[k] += size_bytes

    def _close_ready(self) -> list["PipelineEstimate"]:
        """Emit every heuristic window that can no longer gain frames.

        Window *k* closes once the stream has advanced past its end *and* no
        still-open frame could finalize with an end time inside it.
        """
        assert self.assembler is not None and self._watermark is not None
        estimates: list[PipelineEstimate] = []
        while True:
            window_end = self._next_end
            if self._watermark < window_end:
                break
            if self.max_frame_age_s is not None:
                # Liveness bound: frames whose video stalled long ago will
                # never finalize on their own while only audio keeps flowing.
                for frame in self.assembler.finalize_stale(self._watermark - self.max_frame_age_s):
                    self._bucket_frame(frame)
            if any(f.end_time < window_end for f in self.assembler.open_frames):
                break  # an open frame might still finalize into this window
            estimates.append(self._emit(self._next_window))
        return estimates

    def _close_through(self, last_index: int) -> list[_Closed]:
        closed: list[_Closed] = []
        while self._next_window <= last_index:
            closed.append(self._emit(self._next_window))
        return closed

    def _emit(self, k: int) -> _Closed:
        """Close window ``k`` (always ``_next_window``)."""
        PipelineEstimate = _pipeline_estimate_cls()

        window_start = self.start + k * self.window_s
        self._set_next_window(k + 1)
        if self.assembler is None:
            closed = (window_start, self._open_ts, self._open_sz)
            self._open_ts, self._open_sz = [], []
            return closed
        # window_index files a frame under k exactly when start + k*window_s
        # <= end < start + (k+1)*window_s, so every filed frame is a member.
        heuristic = window_estimate(
            self._window_ends.pop(k, []), self._window_bytes.pop(k, 0), window_start, self.window_s
        )
        return PipelineEstimate(
            window_start=heuristic.window_start,
            frame_rate=heuristic.frame_rate,
            bitrate_kbps=heuristic.bitrate_kbps,
            frame_jitter_ms=heuristic.frame_jitter_ms,
            resolution=None,
            source="heuristic",
        )


class StreamingQoEPipeline:
    """Single-pass, per-flow, bounded-memory QoE estimation.

    Wraps a (trained or untrained) :class:`~repro.core.pipeline.QoEPipeline`
    and applies its estimators incrementally::

        pipeline = QoEPipeline.for_vca("teams").train(lab_calls)
        stream = StreamingQoEPipeline(pipeline)
        for packet in live_capture:
            for emitted in stream.push(packet):
                handle(emitted.flow, emitted.estimate)
        for emitted in stream.flush():
            handle(emitted.flow, emitted.estimate)

    Parameters
    ----------
    pipeline:
        The configured estimator stack.  Whether the ML models or the IP/UDP
        heuristic are used is decided by ``pipeline.is_trained`` at
        construction time, exactly as in the batch path.
    config:
        The :class:`~repro.core.config.PipelineConfig` the engine runs
        (windowing grid, flow demultiplexing, reorder depth, liveness bound,
        back-fill limit); defaults to ``pipeline.config``.  Derive a variant
        with ``pipeline.config.replace(...)``.  A ``reorder_depth`` of
        ``None`` resolves to the effective assembler lookback.
    obs:
        Optional :class:`~repro.obs.registry.MetricsRegistry` the engine
        records tick counters and stage spans into.
    """

    def __init__(
        self,
        pipeline: "QoEPipeline",
        config: PipelineConfig | None = None,
        obs: "MetricsRegistry | None" = None,
    ) -> None:
        self.pipeline = pipeline
        #: Optional :class:`~repro.obs.registry.MetricsRegistry`; ``None``
        #: keeps every tick at one falsy branch of overhead.
        self.obs = obs
        if config is None:
            config = pipeline.config
        # Resolve frame-assembly parameters from the *effective* config, not
        # the pipeline's pre-built heuristic: a per-engine config override of
        # delta_size/lookback must actually take effect.
        self._delta_size, self._lookback = config.resolve_assembly(pipeline.profile)
        if config.reorder_depth is None:
            config = config.replace(reorder_depth=self._lookback)
        self.config = config
        self.window_s = float(config.window_s)
        self.demux_flows = config.demux_flows
        self.start = config.start
        self.trained = pipeline.is_trained
        self._classifier = pipeline.ml.media_classifier if self.trained else pipeline.heuristic.classifier
        self.reorder_depth = config.reorder_depth
        self.max_frame_age_s = config.max_frame_age_s
        self.backfill_limit = config.backfill_limit
        self._closed = False
        # The stream registry, keyed by the plain header tuple
        # ``(src, src_port, dst, dst_port, protocol)`` (``None`` in
        # single-flow mode); insertion order is first-seen order.
        self._streams: dict[tuple | None, _FlowStream] = {}
        # The streams of the last block's flow table by flow code (``None``
        # until the code is first met), so a tick reaches a flow's stream
        # without building its registry key; a new table starts a new list.
        self._table: tuple[FlowKey, ...] | None = None
        self._table_streams: list[_FlowStream | None] = []
        # Estimates of a block that raised mid-tick: the windows are already
        # closed, so they are delivered by the next push_block or flush.
        self._held_estimates: list[StreamEstimate] = []
        #: Always-on slow-path and drop counters (see :func:`engine_counters`);
        #: plain integer adds, no ``ObsConfig`` needed.
        self.counters = engine_counters()

    # -- introspection ---------------------------------------------------------

    @property
    def flows(self) -> list[FlowKey]:
        """The 5-tuples of the live flows (demux mode), in first-seen order."""
        return [stream.flow for stream in self._streams.values() if stream.flow is not None]

    @property
    def live_flows(self) -> list[FlowKey | None]:
        """The flow of every live stream, in first-seen order: :attr:`flows`,
        or ``[None]`` for the one stream of single-flow mode once it has
        seen a packet."""
        return [stream.flow for stream in self._streams.values()]

    @property
    def buffered_packets(self) -> int:
        """Total packets currently held in reorder buffers (bounded)."""
        return sum(stream.buffered_packets for stream in self._streams.values())

    @property
    def open_windows(self) -> int:
        """Total windows currently open across all flows (bounded)."""
        return sum(stream.open_windows for stream in self._streams.values())

    # -- streaming -------------------------------------------------------------

    def push(self, packet: Packet) -> list[StreamEstimate]:
        """Feed one packet; returns estimates for any windows that closed.

        In single-flow mode the 5-tuple bookkeeping is skipped entirely (the
        session is pre-isolated by contract), keeping the per-packet cost to
        the estimation operators alone.
        """
        if self._closed:
            raise RuntimeError(
                "this engine was flushed (end of capture); construct a new "
                "StreamingQoEPipeline for the next capture"
            )
        if self.demux_flows:
            ip = packet.ip
            udp = packet.udp
            key: tuple | None = (ip.src, udp.src_port, ip.dst, udp.dst_port, ip.protocol)
        else:
            key = None
        stream = self._streams.get(key)
        if stream is None:
            stream = self._add_stream(key, None if key is None else FlowKey(*key))
        closed = stream.push(packet)
        return self._resolve([(stream.flow, item) for item in closed]) if closed else []

    def push_block(self, block: PacketBlock) -> list[StreamEstimate]:
        """Feed a columnar :class:`~repro.net.block.PacketBlock` as one tick.

        The struct-of-arrays hot path: the block is demultiplexed by its
        pre-computed flow codes (one stable argsort, no per-packet dict
        work), and each flow's stream is found through a list kept per flow
        table (``block.flows``) and indexed by flow code: a flow's
        :class:`~repro.net.flows.FlowKey` becomes a registry key only when
        its table first meets it.

        The tick is **one segmented pass over the whole block** in both
        modes, not one pass per (flow, block): a light loop gathers each
        flow's reorder tail into flat arrays with segment offsets; then, once
        per block, the reorder delay line releases and ``video_mask``
        classifies.  Only the per-window reducer differs by mode.

        In heuristic mode :func:`~repro.core.frame_assembly.assemble_segments`
        runs Algorithm 1 over every flow at once (stacked lookback comparison
        under a same-segment mask, pointer doubling, segment-reduced
        per-frame aggregates) and every finalized frame gets its window
        index.  Only flows whose horizon crosses their next window end replay
        their window closes in Python; the rest just bucket their finalized
        frames.

        In trained mode one ``window_indices`` call places every released row
        of the block, video or not (any released packet closes the windows
        before its own, so an audio-only stretch still closes windows).  Each
        flow's open window gains its released video rows, and every window
        the block closes -- across all flows -- becomes raw rows.  At the end
        of the tick one :func:`~repro.core.features.window_features` pass
        computes all their features and one walk of the stacked forests
        predicts them all
        (:meth:`~repro.core.estimators.BaseMLEstimator.predict_many`).  Both
        are row-independent and bit-identical per row, so the estimates equal
        per-window :meth:`push` inference; only the overhead is amortized.

        The state is scattered back into the same per-flow objects, so
        ``push`` and ``push_block`` interleave freely.  A flow whose run is
        disordered, or (heuristic) whose frames a ``max_frame_age_s`` sweep
        could evict mid-run, commits nothing from the pass and replays
        through per-packet :meth:`push` instead (counted in
        :attr:`counters`); its closed windows join the tick's single
        resolution.  No packet objects are constructed for sorted in-flow
        runs in either mode.

        It is also the batch path: :meth:`collect` with ``batch=True`` (for
        ``QoEPipeline.estimate`` and ``QoEMonitor(batch_grid=True)``) runs it.

        **Equivalence contract (pinned by tests):** feeding a capture through
        ``push_block`` emits the same estimates as per-packet :meth:`push`,
        bit-identically and *in the same order* -- every emission is tagged
        with the block row that triggered it and the tick is emitted in
        trigger order, so callers cannot observe which path produced a
        stream.  If the block fails part-way, the (resolved) estimates of
        windows that had already closed are held and delivered at the front
        of the next ``push_block`` or ``flush`` call: like ``push``, a closed
        window's estimate always reaches the caller.
        """
        if self._closed:
            raise RuntimeError(
                "this engine was flushed (end of capture); construct a new "
                "StreamingQoEPipeline for the next capture"
            )
        held = self._held_estimates
        self._held_estimates = []
        if len(block) == 0:
            return held
        obs = self.obs
        started = perf_counter() if obs is not None else 0.0
        # (trigger row, sequence, flow, closed window): sorting by the first
        # two restores per-packet emission order.
        tagged: list[tuple[int, int, FlowKey | None, _Closed]] = []
        try:
            self._segmented_tick(block, tagged)
            tagged.sort(key=lambda item: (item[0], item[1]))
            emitted = held + self._resolve([item[2:] for item in tagged])
        except BaseException:
            self._held_estimates = held
            tagged.sort(key=lambda item: (item[0], item[1]))
            held.extend(self._resolve([item[2:] for item in tagged]))
            raise
        if obs is not None:
            obs.time_stage("push_block", started)
            obs.inc("qoe_engine_ticks_total")
            obs.inc("qoe_engine_packets_total", len(block))
            if emitted:
                obs.inc("qoe_engine_estimates_total", len(emitted))
        return emitted

    def _segmented_tick(
        self, block: PacketBlock, tagged: list[tuple[int, int, FlowKey | None, _Closed]]
    ) -> None:
        """Tick body: every flow of the block in one segmented pass.

        Demultiplexes by flow code and sorts out the flows whose run is
        disordered or backdates its reorder buffer or watermark: those
        replay through per-packet :meth:`_FlowStream.push` (counted as
        ``scalar_fallback_rows["disordered"]``).  Every other flow goes
        through :meth:`_release_segments` together.
        """
        flows = block.flows
        if self.demux_flows:
            order, codes, bounds = block.flow_segments()
            if flows is not self._table:
                self._table = flows
                self._table_streams = [None] * len(flows)
            by_code = self._table_streams
        else:
            order = np.arange(len(block))
            codes, bounds = np.zeros(1, dtype=np.int64), np.array([0, len(block)])
            by_code = [self._streams.get(None)]
        ts = block.timestamps[order]
        sizes = block.sizes[order]
        heads = bounds[:-1]
        counts = np.diff(bounds)
        n_flows = len(counts)
        first_ts = ts[heads]
        last_ts = ts[bounds[1:] - 1]
        falls = ts[1:] < ts[:-1]
        falls[bounds[1:-1] - 1] = False  # one flow's last row -> the next flow's first
        disordered = np.zeros(n_flows, dtype=bool)
        newest = last_ts
        if falls.any():
            flow_of_row = np.repeat(np.arange(n_flows), counts)
            disordered[flow_of_row[np.flatnonzero(falls) + 1]] = True
            newest = np.where(disordered, np.maximum.reduceat(ts, heads), last_ts)

        # Gather: one light pass over the flows, reading each stream's
        # reorder buffer, sequence counter and watermark (nothing is written
        # but last_seen).
        selected: list[tuple[int, _FlowStream]] = []
        buffered: list[tuple[float, int, int, Packet | None]] = []
        n_buffered: list[int] = []
        seqs: list[int] = []
        fallback: list[tuple[int, _FlowStream, str]] = []
        for f, code, first, new_ts, backwards in zip(
            range(n_flows), codes.tolist(), first_ts.tolist(), newest.tolist(), disordered.tolist()
        ):
            stream = by_code[code]
            if stream is None:
                stream = by_code[code] = self._stream_of(flows[code] if self.demux_flows else None)
            if stream.last_seen is None or new_ts > stream.last_seen:
                stream.last_seen = new_ts
            pending = stream._pending
            if len(pending) > 2:  # a heap of two entries is sorted already
                pending = sorted(pending)
            if not backwards:
                # A run that backdates the buffer or the stream (possible
                # whenever the buffer is shallower than the disorder, e.g.
                # reorder_depth=0) must go through _release's stale-packet
                # drop, not the delay line.
                backwards = bool(pending) and first < pending[-1][0]
                if not backwards and stream._watermark is not None:
                    backwards = first < stream._watermark
            if backwards:
                fallback.append((f, stream, "disordered"))
                continue
            selected.append((f, stream))
            n_buffered.append(len(pending))
            buffered += pending
            seqs.append(stream._seq)
        if selected:
            fallback.extend(
                self._release_segments(
                    ts, sizes, order, bounds, selected, buffered, n_buffered, seqs, tagged
                )
            )
        fallback_rows = self.counters["scalar_fallback_rows"]
        for f, stream, reason in fallback:
            a, b = int(bounds[f]), int(bounds[f + 1])
            fallback_rows[reason] += b - a
            for pos, closed in stream._push_each(ts[a:b], sizes[a:b], order[a:b]):
                tagged.append((pos, len(tagged), stream.flow, closed))

    def _release_segments(
        self,
        ts: np.ndarray,
        sizes: np.ndarray,
        order: np.ndarray,
        bounds: np.ndarray,
        selected: list[tuple[int, _FlowStream]],
        buffered: list[tuple[float, int, int, Packet | None]],
        n_buffered: list[int],
        seqs: list[int],
        tagged: list[tuple[int, int, FlowKey | None, _Closed]],
    ) -> list[tuple[int, _FlowStream, str]]:
        """Release, reduce and window the selected flows' runs at once.

        ``ts`` / ``sizes`` are the block's columns grouped by flow
        (``order`` maps them back to block rows, ``bounds`` delimits flows);
        ``selected`` are the sorted flows as ``(flow, stream)``, ``buffered``
        their sorted reorder buffers, laid end to end, and ``seqs`` their
        streams' sequence counters.

        On sorted runs each reorder buffer is a delay line: a flow releases
        its buffer ++ run minus the newest ``reorder_depth`` rows, and
        released row ``r`` is released by the push of the row ``depth``
        places later.  So, over all flows at once: the release and one
        ``video_mask``.  Heuristic: one
        :func:`~repro.core.frame_assembly.assemble_segments` call (which also
        writes the assemblers back) and one ``window_indices`` over every
        finalized frame.  Trained: one ``window_indices`` over every released
        row.  The rows that stay buffered become reorder entries all at
        once; then a light pass scatters each flow's slice of them and its
        watermark back into its stream.  A trained flow commits its rows and
        closes its windows (:meth:`_FlowStream._close_rows`).  A heuristic
        flow whose horizon stays short of its next window end files all its
        finalized frames under that window at once; the rest replay their
        window closes (:meth:`_FlowStream._replay_closes`).

        Returns the flows the kernel's liveness check bailed on, which
        committed nothing, for the per-packet fallback.
        """
        n_flows = len(bounds) - 1
        n_sel = len(selected)
        sel = np.array([f for f, _ in selected], dtype=np.int64)
        m = np.diff(bounds)[sel]
        p0 = np.array(n_buffered, dtype=np.int64)
        depth = self.reorder_depth
        dl_len = p0 + m
        n_rel = np.maximum(dl_len - depth, 0)
        dl_start = np.zeros(n_sel + 1, dtype=np.int64)
        np.cumsum(dl_len, out=dl_start[1:])
        n_dl = int(dl_start[-1])
        flow_of_dl = np.repeat(np.arange(n_sel), dl_len)
        dl_local = np.arange(n_dl) - dl_start[flow_of_dl]
        from_run = dl_local >= p0[flow_of_dl]
        if n_sel == n_flows:
            rows: "slice | np.ndarray" = slice(None)
        else:
            chosen = np.zeros(n_flows, dtype=bool)
            chosen[sel] = True
            rows = np.flatnonzero(np.repeat(chosen, np.diff(bounds)))
        dl_ts = np.empty(n_dl, dtype=np.float64)
        dl_sz = np.empty(n_dl, dtype=np.int64)
        dl_row = np.full(n_dl, -1, dtype=np.int64)
        dl_ts[from_run] = ts[rows]
        dl_sz[from_run] = sizes[rows]
        dl_row[from_run] = order[rows]
        if buffered:
            dl_ts[~from_run] = [entry[0] for entry in buffered]
            dl_sz[~from_run] = [entry[2] for entry in buffered]
        released = dl_local < n_rel[flow_of_dl]
        rel = np.flatnonzero(released)
        rel_ts = dl_ts[rel]
        rel_sz = dl_sz[rel]
        rel_start = np.zeros(n_sel + 1, dtype=np.int64)
        np.cumsum(n_rel, out=rel_start[1:])
        stay = np.flatnonzero(from_run & ~released)
        n_stay = dl_len - np.maximum(n_rel, p0)

        active = np.flatnonzero(n_rel)
        n_active = len(active)
        kseg = np.full(n_sel, -1, dtype=np.int64)
        kseg[active] = np.arange(n_active)
        bailed = np.zeros(n_sel, dtype=bool)
        if n_active:
            try:
                video = np.flatnonzero(self._classifier.video_mask(rel_sz))
            except Exception:
                if n_sel == 1:
                    raise
                # Nothing is committed yet, so the failure can be pinned to
                # its flow exactly as a per-flow tick would: retry one flow
                # at a time -- the flows before the failing one commit (and
                # their closed windows are held), then it raises again.
                bails = []
                pq = 0
                for item, p0f, seq in zip(selected, n_buffered, seqs):
                    bails.extend(
                        self._release_segments(
                            ts, sizes, order, bounds, [item], buffered[pq : pq + p0f], [p0f], [seq], tagged
                        )
                    )
                    pq += p0f
                return bails
            if self.trained:
                rel_k = window_indices(rel_ts, self.start, self.window_s)
                closes = (
                    rel_k.tolist(),
                    dl_row[rel + depth].tolist(),
                    rel_k[video].tolist(),
                    rel_ts[video].tolist(),
                    rel_sz[video].tolist(),
                    np.searchsorted(video, rel_start).tolist(),  # each flow's video rows
                )
            else:
                v_flow = flow_of_dl[rel[video]]
                v_sz = rel_sz[video]
                v_ts = rel_ts[video]
                kbounds = np.zeros(n_active + 1, dtype=np.int64)
                np.cumsum(np.bincount(v_flow, minlength=n_sel)[active], out=kbounds[1:])
                obs = self.obs
                started = perf_counter() if obs is not None else 0.0
                run = assemble_segments(
                    [selected[f][1].assembler for f in active.tolist()],
                    v_sz,
                    np.maximum(v_sz - RTP_FIXED_HEADER_LEN, 0),
                    v_ts,
                    kbounds,
                    max_gap_s=self.max_frame_age_s,
                    horizons=rel_ts[rel_start[active + 1] - 1],
                )
                if obs is not None:
                    obs.time_stage("frame_assembly", started)
                if run.bail is not None:
                    bailed[active[run.bail]] = True
                # Finalized frames are filed from the kernel's columns.
                fin_groups = run.fin_groups
                fin_end = run.end_ts[fin_groups]
                fin_ks = window_indices(fin_end, self.start, self.window_s).tolist()
                fin_ends = fin_end.tolist()
                fin_bytes = run.size_bytes[fin_groups].tolist()
                fin_seg = run.g_seg[fin_groups]
                segs = np.arange(n_active)
                fin_lo = np.searchsorted(fin_seg, segs).tolist()
                fin_hi = np.searchsorted(fin_seg, segs, side="right").tolist()

        rel_ts_list = rel_ts.tolist()
        rel_start_list = rel_start.tolist()
        # The unreleased tail of each (buffer ++ run) is sorted, hence a
        # valid heap as-is; a run row's sequence number is its stream's
        # counter plus its index in the run.
        stay_flow = flow_of_dl[stay]
        stay_seq = np.array(seqs, dtype=np.int64)[stay_flow] + dl_local[stay] - p0[stay_flow]
        stayed = list(zip(dl_ts[stay].tolist(), stay_seq.tolist(), dl_sz[stay].tolist(), repeat(None)))
        trained = self.trained
        replay = None
        bails: list[tuple[int, _FlowStream, str]] = []
        pq = 0
        tq = 0
        for i, (f, stream), mf, p0f, nrel, nstay, ks, bail in zip(
            range(n_sel),
            selected,
            m.tolist(),
            n_buffered,
            n_rel.tolist(),
            n_stay.tolist(),
            kseg.tolist(),
            bailed.tolist(),
        ):
            if bail:
                bails.append((f, stream, "liveness"))
                pq += p0f
                tq += nstay
                continue
            stream._seq += mf
            stream._pending = buffered[pq + nrel : pq + p0f] + stayed[tq : tq + nstay]
            pq += p0f
            tq += nstay
            if not nrel:
                continue
            rs = rel_start_list[i]
            re = rs + nrel
            if stream._watermark is None:
                stream._anchor(rel_ts_list[rs])
            horizon = rel_ts_list[re - 1]
            stream._watermark = horizon
            if trained:
                rel_k_l, triggers, v_k, v_ts_l, v_sz_l, v_lo = closes
                for pos, closed in stream._close_rows(
                    rel_k_l, rs, re, triggers, v_k, v_ts_l, v_sz_l, v_lo[i], v_lo[i + 1]
                ):
                    tagged.append((pos, len(tagged), stream.flow, closed))
                continue
            next_end = stream._next_end
            if horizon < next_end:
                # No window can close inside this run, so every frame it
                # finalized ends in the open window _next_window (no frame
                # finalizes into an emitted one): file them there at once.
                a, b = fin_lo[ks], fin_hi[ks]
                if a < b:
                    stream._bucket(stream._next_window, fin_ends[a:b], sum(fin_bytes[a:b]))
                continue
            if replay is None:
                # Placement tables in released-row coordinates, built once
                # per tick as plain lists: the kernel's new rows are the
                # released video rows, so v_local maps them to each flow's
                # released-row index.  Carried slots (occ == -1) read the
                # trailing sentinel and are never looked at; nor is a new
                # frame's NaN prior end.
                v_local = np.append(video - rel_start[v_flow], -1)
                fin_rel = np.full(len(run.g_seg), -1, dtype=np.int64)
                fin_rel[fin_groups] = v_local[run.fin_rows]
                occ_rel = v_local[run.occ]
                carried = ~np.isnan(run.prior_ends)
                first_rel = np.where(carried, -1, occ_rel[np.minimum(run.lo, len(occ_rel) - 1)])
                replay = (
                    occ_rel.tolist(),
                    np.append(v_ts, 0.0)[run.occ].tolist(),
                    run.lo.tolist(),
                    run.hi.tolist(),
                    fin_rel.tolist(),
                    run.prior_ends.tolist(),
                    first_rel.tolist(),
                    np.searchsorted(run.g_seg, segs).tolist(),
                    np.searchsorted(run.g_seg, segs, side="right").tolist(),
                    dl_row[rel + depth].tolist(),
                )
            occ_rel_l, occ_ts_l, lo_l, hi_l, fin_rel_l, prior_l, first_l, g_lo, g_hi, triggers = replay
            # Frames that finalize before the first closable boundary row
            # can never block a close (the boundary row only grows).
            cross0 = bisect_left(rel_ts_list, next_end, rs, re) - rs
            spans = []
            for g in range(g_lo[ks], g_hi[ks]):
                fin = fin_rel_l[g]
                if fin < 0:
                    fin = None
                elif fin <= cross0:
                    continue
                spans.append((lo_l[g], hi_l[g], fin, prior_l[g], first_l[g]))
            fins = [
                (fin_rel_l[g], fin_ks[q], fin_ends[q], fin_bytes[q])
                for q, g in zip(range(fin_lo[ks], fin_hi[ks]), fin_groups[fin_lo[ks] : fin_hi[ks]].tolist())
            ]
            for pos, estimate in stream._replay_closes(
                rel_ts_list, rs, re, triggers, spans, occ_rel_l, occ_ts_l, fins
            ):
                tagged.append((pos, len(tagged), stream.flow, estimate))
        return bails

    def process(self, packets: Iterable[Packet]) -> Iterator[StreamEstimate]:
        """Consume a packet iterator, yielding estimates as windows close."""
        for packet in packets:
            yield from self.push(packet)

    def flush(self) -> list[StreamEstimate]:
        """End of capture: close every remaining window of every flow.

        The engine is closed afterwards -- per-flow watermarks cannot be
        rewound, so pushing a new capture into a flushed engine would
        silently discard every packet as stale reordering.  Further
        :meth:`push` calls raise; flushing again is a no-op.

        In trained mode the flush is one tick: one feature pass and one
        forest walk over every flow's remaining windows, in flow order.
        """
        if self._closed:
            return []
        self._closed = True
        held = self._held_estimates
        self._held_estimates = []
        closed = [(stream.flow, item) for stream in self._streams.values() for item in stream.flush()]
        emitted = held + self._resolve(closed)
        if self.obs is not None and emitted:
            self.obs.inc("qoe_engine_estimates_total", len(emitted))
        return emitted

    def evict_idle(self, idle_s: float) -> list[StreamEstimate]:
        """Flush and drop flows with no packets in the last ``idle_s`` seconds.

        A monitor that runs forever sees an unbounded number of 5-tuples come
        and go; calling this periodically keeps total memory proportional to
        the number of *live* flows rather than flows ever seen.  Evicted
        flows' remaining windows are closed and returned (trained: one
        feature pass and one forest walk for the whole sweep); if such a flow
        later resumes, it simply re-enters as a fresh flow (``backfill_limit``
        bounds the gap windows).
        """
        newest = max(
            (s.last_seen for s in self._streams.values() if s.last_seen is not None),
            default=None,
        )
        if newest is None:
            return []
        closed: list[tuple[FlowKey | None, _Closed]] = []
        n_evicted = 0
        for key, stream in list(self._streams.items()):
            # Keyed off last *arrival*, not the watermark: a tiny flow whose
            # only packets still sit in the reorder buffer must be evictable
            # too (its buffered packets are drained by the flush).
            if stream.last_seen is not None and newest - stream.last_seen > idle_s:
                closed.extend((stream.flow, item) for item in stream.flush())
                del self._streams[key]
                n_evicted += 1
        if n_evicted:  # the table's list may hold an evicted stream
            self._table, self._table_streams = None, []
        emitted = self._resolve(closed)
        if self.obs is not None:
            if n_evicted:
                self.obs.inc("qoe_engine_evicted_flows_total", n_evicted)
            if emitted:
                self.obs.inc("qoe_engine_estimates_total", len(emitted))
        return emitted

    def collect(self, packets: Iterable[Packet], batch: bool = False):
        """Process ``packets`` to exhaustion, flush, and return the estimates.

        This is *the* one-shot collection method (the composable alternative
        is a :class:`~repro.monitor.QoEMonitor` pushing into sinks):

        * ``batch=False`` (default): returns ``list[StreamEstimate]`` -- every
          window of every flow, tagged with its 5-tuple, in emission order.
          Packets go through per-packet :meth:`push`, the reference every
          block-path pin compares against.
        * ``batch=True``: single-session batch scoring (the
          ``QoEPipeline.estimate`` backend); returns bare
          ``list[PipelineEstimate]`` truncated to the batch window grid
          ``[start, end_time)`` -- the stream also closes the window
          *starting* exactly at the last timestamp, which the batch contract
          excludes.  Requires ``demux_flows=False`` and a fresh engine.
          Blocks run through the deployed :meth:`push_block` tick: a
          :class:`~repro.net.trace.PacketTrace` is one tick of its cached
          ``block``, a source's native ``blocks()`` reader is used as is,
          any other iterable goes through ``blocks_from_packets``.
        """
        if not batch:
            emitted = list(self.process(packets))
            emitted.extend(self.flush())
            return emitted
        if isinstance(packets, PacketTrace):
            return self._collect_batch((packets.block,))
        from repro.sources.base import iter_blocks

        return self._collect_batch(iter_blocks(packets))

    def _collect_batch(self, blocks: Iterable[PacketBlock]) -> list["PipelineEstimate"]:
        """``collect(batch=True)`` over columnar blocks (also the
        ``QoEMonitor(batch_grid=True)`` loop)."""
        if self.demux_flows:
            raise RuntimeError("collect(batch=True) requires demux_flows=False (one session)")
        if self._streams:
            raise RuntimeError("collect(batch=True) requires a fresh engine")
        # The batch contract covers [start, end_time) in full, including
        # leading empty windows.
        self.config = self.config.replace(backfill_limit=None)
        self.backfill_limit = None
        estimates = [emitted.estimate for block in blocks for emitted in self.push_block(block)]
        estimates.extend(emitted.estimate for emitted in self.flush())
        stream = self._streams.get(None)
        watermark = stream._watermark if stream is not None else None
        if watermark is None:
            return []
        # Number of windows k with start + k*window_s < watermark.
        k = window_index(watermark, self.start, self.window_s)
        return estimates[: k if self.start + k * self.window_s >= watermark else k + 1]

    def low_watermark(self, new_flow_slack_s: float | None = None) -> float | None:
        """A lower bound on the ``window_start`` of any future estimate.

        Per live flow the bound is exact: windows are emitted in index order,
        so nothing before ``start + _next_window * window_s`` can ever be
        emitted again.  A *new* flow, however, enters at its first packet's
        window minus up to ``backfill_limit`` empty windows, and that first
        packet can trail the most advanced flow by however disordered the
        source is across flows.  ``new_flow_slack_s`` caps that assumed
        cross-flow disorder (the intra-flow analogue is ``reorder_depth``):
        when given, the bound also covers a hypothetical flow whose first
        packet arrives ``new_flow_slack_s`` behind the newest packet seen --
        including its back-filled windows (with ``backfill_limit=None`` such
        a flow back-fills from the grid origin, so the bound is ``start``).
        Returns ``None`` before any packet has been pushed.  The sharded
        monitor's fan-in merge orders its output by releasing only estimates
        below every shard's watermark.
        """
        bounds: list[float] = []
        newest: float | None = None
        for stream in self._streams.values():
            bounds.append(stream.next_window_start)
            if stream.last_seen is not None and (newest is None or stream.last_seen > newest):
                newest = stream.last_seen
        if newest is None:
            return None
        if new_flow_slack_s is not None:
            if self.backfill_limit is None:
                bounds.append(self.start)
            else:
                horizon = newest - new_flow_slack_s
                first = window_index(horizon, self.start, self.window_s) - self.backfill_limit
                bounds.append(self.start + first * self.window_s)
        return min(bounds)

    # -- telemetry -------------------------------------------------------------

    def load_stats(self) -> dict:
        """One-pass mid-run load signal (per-shard load telemetry).

        ``live_flows`` / ``buffered_packets`` / ``open_windows`` in a single
        sweep over the streams, so per-tick telemetry costs one pass instead
        of the three the individual properties would take.
        """
        buffered = 0
        open_windows = 0
        for stream in self._streams.values():
            buffered += stream.buffered_packets
            open_windows += stream.open_windows
        return {
            "live_flows": len(self._streams),
            "buffered_packets": buffered,
            "open_windows": open_windows,
        }

    # -- internals -------------------------------------------------------------

    def _stream_of(self, flow: FlowKey | None) -> _FlowStream:
        """The stream of ``flow`` (``None`` in single-flow mode), by its
        registry key: a table's first meeting with a flow, which another
        table or per-packet :meth:`push` may have registered already."""
        key = None if flow is None else (flow.src, flow.src_port, flow.dst, flow.dst_port, flow.protocol)
        stream = self._streams.get(key)
        return stream if stream is not None else self._add_stream(key, flow)

    def _add_stream(self, key: tuple | None, flow: FlowKey | None) -> _FlowStream:
        """Register a new stream for ``flow`` under registry ``key``."""
        assembler = None
        if not self.trained:
            assembler = FrameAssembler(delta_size=self._delta_size, lookback=self._lookback)
        stream = self._streams[key] = _FlowStream(flow, self.config, self._classifier, assembler, self.counters)
        return stream

    def _resolve(self, closed: list[tuple[FlowKey | None, _Closed]]) -> list[StreamEstimate]:
        """The estimates of ``(flow, closed window)`` pairs, in order.

        A heuristic window is its estimate already.  Trained windows resolve
        together: one :func:`~repro.core.features.window_features` pass over
        their raw video rows and one walk of the stacked forests.
        """
        if not self.trained:
            return [StreamEstimate(flow=key, estimate=item) for key, item in closed]
        if not closed:
            return []
        windows = [item for _, item in closed]
        lengths = np.fromiter((len(w[1]) for w in windows), dtype=np.intp, count=len(windows))
        n_rows = int(lengths.sum())
        timestamps = np.fromiter(chain.from_iterable(w[1] for w in windows), np.float64, n_rows)
        sizes = np.fromiter(chain.from_iterable(w[2] for w in windows), np.float64, n_rows)
        obs = self.obs
        started = perf_counter() if obs is not None else 0.0
        features = window_features(timestamps, sizes, lengths, self.window_s)
        if obs is not None:
            obs.time_stage("features", started)
        estimates = self._predict_rows(features, [w[0] for w in windows])
        return [StreamEstimate(flow=key, estimate=e) for (key, _), e in zip(closed, estimates)]

    def _predict_rows(self, feature_rows, window_starts: list[float]) -> list["PipelineEstimate"]:
        """Run the trained per-metric forests once over ``feature_rows``."""
        PipelineEstimate = _pipeline_estimate_cls()
        obs = self.obs
        if obs is None:
            rows = self.pipeline.ml.predict_many(feature_rows, window_starts)
        else:
            started = perf_counter()
            rows = list(self.pipeline.ml.predict_many(feature_rows, window_starts))
            obs.time_stage("predict", started)
            obs.inc("qoe_engine_predict_windows_total", len(feature_rows))
        return [
            PipelineEstimate(
                window_start=row.window_start,
                frame_rate=row.frame_rate,
                bitrate_kbps=row.bitrate_kbps,
                frame_jitter_ms=row.frame_jitter_ms,
                resolution=row.resolution,
                source="ml",
            )
            for row in rows
        ]
