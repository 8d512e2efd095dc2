"""Streaming per-flow QoE estimation engine (the deployable architecture).

The paper's deployment target is a passive monitor in the middle of the
network: packets of many concurrent VCA sessions arrive interleaved, one at a
time, and the operator wants per-second QoE estimates per session *as the
call is happening*.  :class:`StreamingQoEPipeline` is that engine:

* packets are consumed from any iterator (live capture, pcap reader,
  :class:`~repro.net.trace.PacketTrace`) in a **single pass**;
* traffic is demultiplexed by unidirectional 5-tuple via
  :class:`~repro.net.flows.FlowTable` (non-buffering mode), one independent
  estimation stream per flow;
* each flow stream runs the same operators as the batch pipeline -- media
  classification, online frame assembly (Algorithm 1), incremental IP/UDP
  feature accumulation -- and emits a
  :class:`~repro.core.pipeline.PipelineEstimate` the moment a window can no
  longer change;
* retained state is **O(window)** per flow: a reorder buffer bounded by the
  assembler lookback, the assembler's lookback state, and the accumulators /
  frame buckets of the currently-open windows.  Nothing scales with trace
  length.

:meth:`QoEPipeline.estimate <repro.core.pipeline.QoEPipeline.estimate>` is a
thin batch adapter over this engine, so the batch and streaming paths cannot
diverge.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.features import IPUDPFeatureAccumulator, accumulated_features
from repro.core.frame_assembly import AssembledFrame, FrameAssembler
from repro.core.heuristic import estimates_from_frames
from repro.core.media import MediaClassifier
from repro.net.block import PacketBlock, _BlockRow
from repro.net.flows import FlowKey, FlowTable
from repro.net.packet import RTP_FIXED_HEADER_LEN, Packet

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.core.pipeline import PipelineEstimate, QoEPipeline
    from repro.obs.registry import MetricsRegistry

__all__ = ["StreamEstimate", "StreamingQoEPipeline", "window_index", "window_indices"]

#: Sentinel distinguishing "not passed" from an explicit ``None`` override.
_UNSET = object()

_PIPELINE_ESTIMATE_CLS = None


def _pipeline_estimate_cls():
    """Late-bound :class:`~repro.core.pipeline.PipelineEstimate` (circular
    import at module load), cached so the per-window emit path doesn't pay
    the import-machinery lookup on every call."""
    global _PIPELINE_ESTIMATE_CLS
    if _PIPELINE_ESTIMATE_CLS is None:
        from repro.core.pipeline import PipelineEstimate

        _PIPELINE_ESTIMATE_CLS = PipelineEstimate
    return _PIPELINE_ESTIMATE_CLS


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
    and only windows that are still open hold accumulators / frame buckets
    (dropped the moment the window closes).
    """

    def __init__(
        self,
        config: PipelineConfig,
        classifier: MediaClassifier,
        assembler: FrameAssembler | None,
        predict: Callable[[IPUDPFeatureAccumulator, float], "PipelineEstimate | None"] | None,
        obs: "MetricsRegistry | None" = None,
    ) -> None:
        assert config.reorder_depth is not None, "engine must resolve reorder_depth"
        #: Optional metrics registry (engine-owned); records the
        #: ``frame_assembly`` stage span on the heuristic block path.
        self.obs = obs
        self.window_s = config.window_s
        self.start = config.start
        self.reorder_depth = config.reorder_depth
        self.max_frame_age_s = config.max_frame_age_s
        self.backfill_limit = config.backfill_limit
        self.classifier = classifier
        #: Online frame assembler (heuristic mode) -- one per flow.
        self.assembler = assembler
        #: ML predictor callback (trained mode), handed each closed window's
        #: accumulator; ``None`` -> heuristic mode.
        self.predict = predict
        self._pending: list[tuple[float, int, Packet]] = []
        self._seq = 0
        self._watermark: float | None = None
        #: Block-path bookkeeping: the in-block row index of the packet whose
        #: push is currently triggering emissions (``None`` outside a block).
        #: The engine reads it to restore per-packet emission order.
        self.trigger_pos: int | None = None
        #: Arrival time of the newest packet ever pushed (unlike the
        #: watermark, set even while everything still sits in the reorder
        #: buffer) -- the idle-eviction signal.
        self.last_seen: float | None = None
        self._next_window = 0
        # Heuristic mode: finalized frames keyed by the window their end time
        # falls in; dropped when the window is emitted.
        self._frame_buckets: dict[int, list[AssembledFrame]] = {}
        # Trained mode: the accumulator of the (single) window currently being
        # filled -- released packets arrive in timestamp order, so at most one
        # feature window is ever open.
        self._acc: IPUDPFeatureAccumulator | None = None
        self._acc_index = -1

    # -- introspection (used by the memory-bound tests) ------------------------

    @property
    def buffered_packets(self) -> int:
        return len(self._pending)

    @property
    def open_windows(self) -> int:
        return len(self._frame_buckets) + (1 if self._acc is not None else 0)

    @property
    def next_window_start(self) -> float:
        """Start of the earliest window this flow could still emit."""
        return self.start + self._next_window * self.window_s

    # -- streaming -------------------------------------------------------------

    def push(self, packet: Packet) -> list["PipelineEstimate"]:
        """Feed one packet; returns estimates for any windows that closed."""
        if self.last_seen is None or packet.timestamp > self.last_seen:
            self.last_seen = packet.timestamp
        heapq.heappush(self._pending, (packet.timestamp, self._seq, packet))
        self._seq += 1
        if len(self._pending) <= self.reorder_depth:
            return []
        _, _, released = heapq.heappop(self._pending)
        return self._release(released)

    def push_rows(
        self,
        timestamps: np.ndarray,
        sizes: np.ndarray,
        positions: np.ndarray,
    ) -> list[tuple[int, "PipelineEstimate"]]:
        """Feed a run of block rows: the columnar hot path.

        ``timestamps`` / ``sizes`` are one flow's columns in arrival order;
        ``positions`` carries each row's index in the enclosing block, and
        every returned estimate is tagged with the position of the row whose
        (virtual) push triggered it, so the engine can interleave flows back
        into exact per-packet emission order.

        When the run is timestamp-sorted and nothing in it backdates the
        reorder buffer -- the overwhelmingly common case -- the reorder
        buffer reduces to a sliding delay line: the released rows are the
        sorted buffer followed by the run's prefix.  Trained mode then
        processes the releases with one vectorized window assignment and one
        array accumulator update per window; heuristic mode runs the
        vectorized frame assembler (:meth:`FrameAssembler.push_rows`) over
        the released video rows and replays the window-close schedule from
        the resulting frame spans, constructing zero packet objects.  Both
        replay exactly what per-packet :meth:`push` does (same releases,
        same order, same float arithmetic); disordered runs -- and runs
        where the liveness bound (``max_frame_age_s``) could evict a frame
        mid-run -- fall back to the per-row path, which *is* :meth:`push`.
        """
        m = len(timestamps)
        if m == 0:
            return []
        trained = self.predict is not None
        pending = self._pending
        ordered = m == 1 or bool(np.all(timestamps[1:] >= timestamps[:-1]))
        newest = float(timestamps[-1]) if ordered else float(timestamps.max())
        if self.last_seen is None or newest > self.last_seen:
            self.last_seen = newest
        if ordered and pending:
            ordered = float(timestamps[0]) >= max(entry[0] for entry in pending)
        if ordered and self._watermark is not None:
            # A run that backdates the stream (possible whenever the buffer
            # is shallower than the disorder, e.g. reorder_depth=0) must go
            # through _release's stale-packet drop, not the delay line.
            ordered = float(timestamps[0]) >= self._watermark
        if not ordered:
            return self._push_each(timestamps, sizes, positions)

        depth = self.reorder_depth
        p0 = len(pending)
        pending_sorted = sorted(pending)
        seq0 = self._seq
        self._seq += m
        n_release = p0 + m - depth if p0 + m > depth else 0
        out: list[tuple[int, PipelineEstimate]] = []
        if n_release:
            trig_start = depth - p0
            # The released rows: sorted reorder buffer ++ run prefix.
            if p0:
                pend_ts = np.fromiter(
                    (entry[0] for entry in pending_sorted), dtype=np.float64, count=p0
                )
                pend_sz = np.fromiter(
                    (entry[2].payload_size for entry in pending_sorted), dtype=np.int64, count=p0
                )
                rel_ts = np.concatenate((pend_ts, timestamps))[:n_release]
                rel_sz = np.concatenate((pend_sz, sizes))[:n_release]
            else:
                rel_ts = timestamps[:n_release]
                rel_sz = sizes[:n_release]
            if not trained:
                vectorized = self._push_rows_heuristic(rel_ts, rel_sz, positions, trig_start)
                if vectorized is None:
                    # Liveness bailout: a stale sweep could evict a frame
                    # mid-run and nothing was committed, so replay per row
                    # -- push interleaves finalize_stale exactly.
                    self._seq = seq0
                    return self._push_each(timestamps, sizes, positions)
                out = vectorized
            else:
                rel_trig = positions[trig_start : trig_start + n_release]
                if self._watermark is None:
                    self._anchor(float(rel_ts[0]))
                self._watermark = float(rel_ts[-1])
                ks = window_indices(rel_ts, self.start, self.window_s)
                bounds = np.flatnonzero(np.diff(ks)) + 1
                starts = np.concatenate(([0], bounds))
                ends = np.concatenate((bounds, [n_release]))
                for a, b in zip(starts.tolist(), ends.tolist()):
                    k = int(ks[a])
                    trig = int(rel_trig[a])
                    self.trigger_pos = trig
                    for estimate in self._close_through(k - 1):
                        out.append((trig, estimate))
                    if self._acc is None or k != self._acc_index:
                        self._acc = IPUDPFeatureAccumulator(
                            self.window_s, classifier=self.classifier
                        )
                        self._acc_index = k
                    self._acc.extend(rel_ts[a:b], rel_sz[a:b])
                self.trigger_pos = None
        # Rebuild the reorder buffer: the unreleased tail of (sorted pending
        # ++ incoming) is sorted, hence a valid heap as-is.
        tail = list(pending_sorted[n_release:]) if n_release < p0 else []
        for i in range(max(0, n_release - p0), m):
            timestamp = float(timestamps[i])
            tail.append((timestamp, seq0 + i, _BlockRow(timestamp, int(sizes[i]))))
        self._pending = tail
        return out

    def _push_each(
        self, timestamps: np.ndarray, sizes: np.ndarray, positions: np.ndarray
    ) -> list[tuple[int, "PipelineEstimate"]]:
        """The scalar fallback of :meth:`push_rows`: one :meth:`push` per row."""
        out: list[tuple[int, PipelineEstimate]] = []
        for i in range(len(timestamps)):
            pos = int(positions[i])
            self.trigger_pos = pos
            for estimate in self.push(_BlockRow(float(timestamps[i]), int(sizes[i]))):
                out.append((pos, estimate))
        self.trigger_pos = None
        return out

    def _push_rows_heuristic(
        self,
        rel_ts: np.ndarray,
        rel_sz: np.ndarray,
        positions: np.ndarray,
        trig_start: int,
    ) -> "list[tuple[int, PipelineEstimate]] | None":
        """Vectorized heuristic release path over one sorted run.

        The released rows (sorted reorder buffer ++ run prefix) are
        classified with one ``video_mask`` call, assembled with one
        :meth:`FrameAssembler.push_rows` call, and the window-close loop of
        :meth:`_close_ready` is replayed from the run's frame spans: window
        ``k`` closes at the first released row ``r`` past its end where no
        open frame could still finalize into it, and the emission is tagged
        with ``positions[trig_start + r]`` -- the same trigger the
        per-packet path would have used.  Finalized frames bucket in
        finalization order, interleaved with emissions exactly as scalar
        pushes interleave them, so estimates and their order are
        bit-identical.

        Returns ``None`` -- committing nothing -- when the assembler's
        liveness precheck says a ``finalize_stale`` sweep could fire inside
        this run (the caller then releases per row).
        """
        assembler = self.assembler
        assert assembler is not None
        n_release = len(rel_ts)
        horizon = float(rel_ts[-1])
        mask = self.classifier.video_mask(rel_sz)
        n_video = int(np.count_nonzero(mask))
        run = None
        vrows: np.ndarray | None = None
        vts: np.ndarray | None = None
        if n_video:
            if n_video == n_release:
                # Every released row is video (the common case on a video
                # flow): the video -> released row mapping is the identity,
                # so skip the flatnonzero/fancy-index indirection.
                vts = rel_ts
                vsz = rel_sz
            else:
                vrows = np.flatnonzero(mask)
                vts = rel_ts[vrows]
                vsz = rel_sz[vrows]
            media = np.maximum(vsz - RTP_FIXED_HEADER_LEN, 0)
            obs = self.obs
            started = perf_counter() if obs is not None else 0.0
            run = assembler.push_rows(
                vsz, media, vts, max_gap_s=self.max_frame_age_s, horizon=horizon
            )
            if obs is not None:
                obs.time_stage("frame_assembly", started)
            if run is None:
                return None
        elif self.max_frame_age_s is not None:
            stale_bound = horizon - self.max_frame_age_s
            if any(f.end_time < stale_bound for f in assembler._open.values()):
                return None

        if self._watermark is None:
            self._anchor(float(rel_ts[0]))
        self._watermark = horizon

        if horizon < self.start + (self._next_window + 1) * self.window_s:
            # No window can close inside this run: skip the replay machinery
            # and just bucket the finalized frames in order.
            if run is not None:
                for _, frame in run.finalized:
                    self._bucket_frame(frame)
            return []

        # Per-frame placement in released-row coordinates.  Two fancy-indexes
        # over the shared occurrence array plus ``tolist`` convert everything
        # the replay loop touches into plain Python scalars up front; each
        # span is just ``(lo, hi)`` bounds into those shared lists (the loop
        # bisects within the bounds, no per-span copies).  Frames that
        # finalize before the first unclosed window's boundary row can never
        # block a close (``cross`` only grows), so they are dropped here.
        occ_rel_all: list[int] = []
        occ_ts_all: list[float] = []
        span_data: list[tuple[int, int, int | None, float | None, int]] = []
        fins: list[AssembledFrame] = []
        fin_rows: list[int] = []
        if run is not None:
            assert vts is not None
            occ_idx = np.maximum(run.occ_all, 0)  # carried prefix slots (< 0) are never read
            if vrows is None:
                occ_rel_all = occ_idx.tolist()
                occ_ts_all = rel_ts[occ_idx].tolist()
                vrows_list: "range | list[int]" = range(n_release)
            else:
                occ_rel_all = vrows[occ_idx].tolist()
                occ_ts_all = vts[occ_idx].tolist()
                vrows_list = vrows.tolist()
            lo_list = run.lo.tolist()
            hi_list = run.hi.tolist()
            fin_rows_run = run.fin_rows
            cross0 = int(
                np.searchsorted(
                    rel_ts, self.start + (self._next_window + 1) * self.window_s, side="left"
                )
            )
            for g, prior_end in enumerate(run.prior_ends):
                fin = fin_rows_run[g]
                if fin is not None:
                    fin_rel = vrows_list[fin]
                    if fin_rel <= cross0:
                        continue  # finalized before any closable boundary
                else:
                    fin_rel = None
                lo = lo_list[g]
                first_rel = -1 if prior_end is not None else occ_rel_all[lo]
                span_data.append((lo, hi_list[g], fin_rel, prior_end, first_rel))
            fin_ends: list[float] = []
            for row, frame in run.finalized:
                fins.append(frame)
                fin_rows.append(vrows_list[row])
                fin_ends.append(frame._end_time)
        elif assembler._open:
            # Pure non-video run: carried open frames still gate window
            # closes (they can neither finalize nor gain packets here).
            for frame in assembler._open.values():
                span_data.append((0, 0, None, frame.end_time, -1))

        out: list[tuple[int, PipelineEstimate]] = []
        ev = 0
        n_fins = len(fins)
        # One vectorized window_index over every finalized frame (identical
        # arithmetic), then inline bucketing -- _bucket_frame per frame is
        # measurable at this call rate.
        fin_ks: list[int] = []
        if n_fins:
            fin_ks = window_indices(np.array(fin_ends), self.start, self.window_s).tolist()
        buckets = self._frame_buckets
        while True:
            window_end = self.start + (self._next_window + 1) * self.window_s
            if horizon < window_end:
                break
            cross = int(np.searchsorted(rel_ts, window_end, side="left"))
            r = cross
            blocked = False
            for lo, hi, fin_rel, prior_end, first_rel in span_data:
                if fin_rel is not None and fin_rel <= cross:
                    continue  # already finalized by the time the window ends
                if first_rel > cross:
                    continue  # opens past the boundary: its end is >= window_end
                i = bisect_right(occ_rel_all, cross, lo, hi) - 1
                end = occ_ts_all[i] if i >= lo else prior_end
                assert end is not None
                if end >= window_end:
                    continue
                # The frame blocks window k until it finalizes or gains a
                # packet at/after the boundary row (whose timestamp is then
                # necessarily >= window_end).
                unblock = fin_rel
                if i + 1 < hi:
                    gain = occ_rel_all[i + 1]
                    unblock = gain if unblock is None else min(unblock, gain)
                if unblock is None:
                    blocked = True  # stays open past the run: window can't close yet
                    break
                if unblock > r:
                    r = unblock
            if blocked:
                break
            while ev < n_fins and fin_rows[ev] <= r:
                k_fin = fin_ks[ev]
                if k_fin >= self._next_window:
                    bucket = buckets.get(k_fin)
                    if bucket is None:
                        buckets[k_fin] = [fins[ev]]
                    else:
                        bucket.append(fins[ev])
                ev += 1
            trig = int(positions[trig_start + r])
            estimate = self._emit(self._next_window)
            if estimate is not None:
                out.append((trig, estimate))
        while ev < n_fins:
            k_fin = fin_ks[ev]
            if k_fin >= self._next_window:
                bucket = buckets.get(k_fin)
                if bucket is None:
                    buckets[k_fin] = [fins[ev]]
                else:
                    bucket.append(fins[ev])
            ev += 1
        return out

    def flush(self) -> list["PipelineEstimate"]:
        """Drain the reorder buffer, finalize open frames, close all windows."""
        estimates: list[PipelineEstimate] = []
        while self._pending:
            _, _, released = heapq.heappop(self._pending)
            estimates.extend(self._release(released))
        if self._watermark is None:
            return estimates
        if self.predict is None:
            assert self.assembler is not None
            for frame in self.assembler.flush():
                self._bucket_frame(frame)
        estimates.extend(self._close_through(window_index(self._watermark, self.start, self.window_s)))
        return estimates

    # -- internals -------------------------------------------------------------

    def _release(self, packet: Packet) -> list["PipelineEstimate"]:
        """Process one packet in (reorder-corrected) timestamp order."""
        if self._watermark is None:
            self._anchor(packet.timestamp)
        elif packet.timestamp < self._watermark:
            # Reordered beyond the buffer's tolerance: the stream has already
            # advanced past this timestamp, so feeding it on would corrupt
            # the (order-sensitive) accumulator and assembler state -- and
            # its window may even have been emitted.  Drop it instead; the
            # batch path never hits this because traces arrive sorted.
            return []
        self._watermark = packet.timestamp
        if self.predict is not None:
            return self._release_trained(packet)
        return self._release_heuristic(packet)

    def _anchor(self, first_timestamp: float) -> None:
        # First packet of the flow anchors the grid.  Without a back-fill
        # cap, a flow first seen late on the grid (mid-capture join, or
        # epoch-relative timestamps against start=0) would emit one empty
        # estimate per elapsed window -- billions for an epoch capture.
        if self.backfill_limit is not None:
            first_window = window_index(first_timestamp, self.start, self.window_s)
            self._next_window = max(self._next_window, first_window - self.backfill_limit)

    def _release_trained(self, packet: Packet) -> list["PipelineEstimate"]:
        k = window_index(packet.timestamp, self.start, self.window_s)
        # Every window before the packet's own is now immutable (released
        # packets are in timestamp order), so close them immediately.
        estimates = self._close_through(k - 1)
        if self._acc is None or k != self._acc_index:
            self._acc = IPUDPFeatureAccumulator(self.window_s, classifier=self.classifier)
            self._acc_index = k
        self._acc.push(packet)
        return estimates

    def _release_heuristic(self, packet: Packet) -> list["PipelineEstimate"]:
        assert self.assembler is not None
        if self.classifier.push(packet):
            for frame in self.assembler.push(packet):
                self._bucket_frame(frame)
        return self._close_ready()

    def _bucket_frame(self, frame: AssembledFrame) -> None:
        k = window_index(frame.end_time, self.start, self.window_s)
        if k >= self._next_window:  # frames for already-emitted windows cannot occur
            self._frame_buckets.setdefault(k, []).append(frame)

    def _close_ready(self) -> list["PipelineEstimate"]:
        """Emit every heuristic window that can no longer gain frames.

        Window *k* closes once the stream has advanced past its end *and* no
        still-open frame could finalize with an end time inside it.
        """
        assert self.assembler is not None and self._watermark is not None
        estimates: list[PipelineEstimate] = []
        while True:
            window_end = self.start + (self._next_window + 1) * self.window_s
            if self._watermark < window_end:
                break
            if self.max_frame_age_s is not None:
                # Liveness bound: frames whose video stalled long ago will
                # never finalize on their own while only audio keeps flowing.
                for frame in self.assembler.finalize_stale(self._watermark - self.max_frame_age_s):
                    self._bucket_frame(frame)
            if any(f.end_time < window_end for f in self.assembler.open_frames):
                break  # an open frame might still finalize into this window
            estimate = self._emit(self._next_window)
            if estimate is not None:
                estimates.append(estimate)
        return estimates

    def _close_through(self, last_index: int) -> list["PipelineEstimate"]:
        estimates: list[PipelineEstimate] = []
        while self._next_window <= last_index:
            estimate = self._emit(self._next_window)
            if estimate is not None:
                estimates.append(estimate)
        return estimates

    def _emit(self, k: int) -> "PipelineEstimate | None":
        PipelineEstimate = _pipeline_estimate_cls()

        window_start = self.start + k * self.window_s
        self._next_window = k + 1
        if self.predict is not None:
            if self._acc is not None and self._acc_index == k:
                acc = self._acc
            else:
                acc = IPUDPFeatureAccumulator(self.window_s, classifier=self.classifier)
            if self._acc is not None and self._acc_index <= k:
                self._acc = None  # consumed, or stale from excessive reordering
            return self.predict(acc, window_start)
        frames = self._frame_buckets.pop(k, [])
        # The upper bound is the next window's start so the membership filter
        # agrees exactly with the window_index bucketing on fractional grids.
        heuristic = estimates_from_frames(
            frames, window_start, self.window_s,
            window_end=self.start + (k + 1) * self.window_s,
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
        A :class:`~repro.core.config.PipelineConfig` describing the engine's
        behaviour.  Defaults to ``pipeline.config``.  The keyword arguments
        below are per-field overrides kept for convenience (and backward
        compatibility); when passed they take precedence over ``config``.
    demux_flows:
        When true (default), packets are demultiplexed by unidirectional
        5-tuple and each flow gets an independent estimation stream.  When
        false, all packets are treated as one pre-isolated session (the
        batch-adapter mode).
    start:
        Time origin of the windowing grid (default 0.0, i.e. call time zero).
    reorder_depth:
        Size of the per-flow reorder buffer.  Defaults to the assembler
        lookback: packets displaced by at most this many positions are
        re-sorted transparently, mirroring the reordering tolerance of
        Algorithm 1.  Packets arriving later than that are dropped (their
        window may already be emitted) rather than corrupting open state.
    max_frame_age_s:
        Liveness bound for heuristic mode.  Algorithm 1's lookback counts
        packets, so a total video stall (camera off, outage) leaves the last
        frame open and would otherwise hold back every subsequent window
        while audio keeps flowing -- precisely the degraded seconds a live
        monitor exists to flag.  When set, open frames whose last packet
        lags the stream by more than this many seconds are force-finalized.
        ``None`` (default) preserves exact batch equivalence.
    backfill_limit:
        Maximum number of empty windows emitted before a flow's first packet
        (default 0: a flow's first window is the one its first packet falls
        in, on the shared grid).  This keeps a flow that joins mid-capture --
        or a capture with epoch-relative timestamps -- from back-filling one
        empty estimate per elapsed window since ``start``.  ``None`` means
        unlimited, the batch contract (windows from ``start``), which
        :meth:`collect` with ``batch=True`` selects automatically.
    """

    def __init__(
        self,
        pipeline: "QoEPipeline",
        config: PipelineConfig | None = None,
        demux_flows: bool | object = _UNSET,
        start: float | object = _UNSET,
        reorder_depth: int | None | object = _UNSET,
        max_frame_age_s: float | None | object = _UNSET,
        backfill_limit: int | None | object = _UNSET,
        obs: "MetricsRegistry | None" = None,
    ) -> None:
        self.pipeline = pipeline
        #: Optional :class:`~repro.obs.registry.MetricsRegistry`; ``None``
        #: keeps every tick at one falsy branch of overhead.
        self.obs = obs
        if config is None:
            config = pipeline.config
        overrides = {
            name: value
            for name, value in (
                ("demux_flows", demux_flows),
                ("start", start),
                ("reorder_depth", reorder_depth),
                ("max_frame_age_s", max_frame_age_s),
                ("backfill_limit", backfill_limit),
            )
            if value is not _UNSET
        }
        if overrides:
            config = config.replace(**overrides)
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
        self.reorder_depth = config.reorder_depth
        self.max_frame_age_s = config.max_frame_age_s
        self.backfill_limit = config.backfill_limit
        self._closed = False
        #: Per-flow aggregate statistics only -- packets are never retained.
        self.flow_table = FlowTable(store_packets=False)
        self._streams: dict[FlowKey | None, _FlowStream] = {}
        self._flow_order: list[FlowKey | None] = []
        # Batch-adapter mode: when set, trained-mode windows append
        # ``(accumulator, window_start)`` here instead of predicting per
        # window, so ``collect(batch=True)`` can compute every window's
        # features in one pass and run the forests once, vectorized.
        self._feature_rows: list[tuple[IPUDPFeatureAccumulator, float]] | None = None
        # Tick-batch mode: when set (inside push_block), trained-mode
        # windows append ``(flow, accumulator, window_start, trigger_pos)`` here
        # and inference runs once per tick over all flows whose windows
        # closed in it.  ``trigger_pos`` is the triggering packet's block
        # row; the tick resolves in trigger order, i.e. per-packet emission
        # order.
        self._tick_rows: list[tuple[FlowKey | None, IPUDPFeatureAccumulator, float, int]] | None = None
        # Estimates of a block that raised mid-tick: the windows are already
        # closed, so they are delivered by the next push_block or flush.
        self._held_estimates: list[StreamEstimate] = []

    @classmethod
    def for_vca(cls, vca: str, window_s: int = 1, **kwargs) -> "StreamingQoEPipeline":
        """An untrained (heuristic-backed) streaming pipeline for ``vca``."""
        from repro.core.pipeline import QoEPipeline

        return cls(QoEPipeline.for_vca(vca, window_s=window_s), **kwargs)

    # -- introspection ---------------------------------------------------------

    @property
    def flows(self) -> list[FlowKey]:
        """The 5-tuples seen so far (demux mode), in first-seen order."""
        return [key for key in self._flow_order if key is not None]

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
        session is pre-isolated by contract), keeping the batch adapter's
        per-packet cost to the estimation operators alone.
        """
        if self._closed:
            raise RuntimeError(
                "this engine was flushed (end of capture); construct a new "
                "StreamingQoEPipeline for the next capture"
            )
        if self.demux_flows:
            key: FlowKey | None = self.flow_table.add(packet)
        else:
            key = None
        stream = self._streams.get(key)
        if stream is None:
            stream = self._make_stream(key)
            self._streams[key] = stream
            self._flow_order.append(key)
        return [StreamEstimate(flow=key, estimate=e) for e in stream.push(packet)]

    def push_block(self, block: PacketBlock) -> list[StreamEstimate]:
        """Feed a columnar :class:`~repro.net.block.PacketBlock` as one tick.

        The struct-of-arrays hot path: the block is demultiplexed by its
        pre-computed flow codes (one stable argsort, no per-packet dict
        work), per-flow statistics update in bulk, and each flow's rows run
        through the stream's columnar path (:meth:`_FlowStream.push_rows`)
        -- vectorized window assignment and array accumulator updates in
        trained mode, vectorized frame assembly and window-close replay in
        heuristic mode.  No packet objects are constructed for sorted
        in-flow runs in either mode.

        In trained mode, windows that close anywhere in the block -- across
        all flows -- defer their feature vector and their inference; at the
        end of the block one array pass computes every deferred window's
        features (:func:`~repro.core.features.accumulated_features`) and one
        walk of the stacked forests predicts them all
        (:meth:`~repro.core.estimators.BaseMLEstimator.predict_many`).  Both
        are row-independent and bit-identical per row, so the estimates equal
        per-window :meth:`push` inference; only the overhead is amortized.

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
        tick = self.trained and self._feature_rows is None
        if tick:
            if self._tick_rows is not None:
                self._held_estimates = held
                raise RuntimeError("push_block is not reentrant")
            self._tick_rows = []
        tagged: list[tuple[int, int, StreamEstimate]] = []
        seq = 0
        try:
            if self.demux_flows:
                groups: list[tuple[int | None, np.ndarray]] = block.flow_groups()
            else:
                groups = [(None, np.arange(len(block)))]
            for code, idx in groups:
                if code is None:
                    key: FlowKey | None = None
                else:
                    key = block.flows[code]
                    self.flow_table.update_bulk(
                        key,
                        n=len(idx),
                        n_bytes=int(block.sizes[idx].sum()),
                        first_ts=float(block.timestamps[idx[0]]),
                        last_ts=float(block.timestamps[idx[-1]]),
                    )
                stream = self._streams.get(key)
                if stream is None:
                    stream = self._make_stream(key)
                    self._streams[key] = stream
                    self._flow_order.append(key)
                for pos, estimate in stream.push_rows(
                    block.timestamps[idx], block.sizes[idx], idx
                ):
                    tagged.append((pos, seq, StreamEstimate(flow=key, estimate=estimate)))
                    seq += 1
            tagged.sort(key=lambda item: (item[0], item[1]))
            emitted = held + [item[2] for item in tagged]
            if tick:
                emitted.extend(self._flush_tick())
        except BaseException:
            tagged.sort(key=lambda item: (item[0], item[1]))
            held.extend(item[2] for item in tagged)
            if tick and self._tick_rows:
                held.extend(self._flush_tick())
            self._held_estimates = held
            raise
        finally:
            if tick:
                self._tick_rows = None
        if obs is not None:
            obs.time_stage("push_block", started)
            obs.inc("qoe_engine_ticks_total")
            obs.inc("qoe_engine_packets_total", len(block))
            if emitted:
                obs.inc("qoe_engine_estimates_total", len(emitted))
        return emitted

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
        """
        if self._closed:
            return []
        self._closed = True
        emitted: list[StreamEstimate] = self._held_estimates
        self._held_estimates = []
        for key in self._flow_order:
            for estimate in self._streams[key].flush():
                emitted.append(StreamEstimate(flow=key, estimate=estimate))
        if self.obs is not None and emitted:
            self.obs.inc("qoe_engine_estimates_total", len(emitted))
        return emitted

    def evict_idle(self, idle_s: float) -> list[StreamEstimate]:
        """Flush and drop flows with no packets in the last ``idle_s`` seconds.

        A monitor that runs forever sees an unbounded number of 5-tuples come
        and go; calling this periodically keeps total memory proportional to
        the number of *live* flows rather than flows ever seen.  Evicted
        flows' remaining windows are closed and returned; if such a flow
        later resumes, it simply re-enters as a fresh flow (``backfill_limit``
        bounds the gap windows).
        """
        newest = max(
            (s.last_seen for s in self._streams.values() if s.last_seen is not None),
            default=None,
        )
        if newest is None:
            return []
        emitted: list[StreamEstimate] = []
        n_evicted = 0
        try:
            for key in self._flow_order:
                stream = self._streams[key]
                # Keyed off last *arrival*, not the watermark: a tiny flow
                # whose only packets still sit in the reorder buffer must be
                # evictable too (its buffered packets are drained by the
                # flush).
                if stream.last_seen is not None and newest - stream.last_seen > idle_s:
                    for estimate in stream.flush():
                        emitted.append(StreamEstimate(flow=key, estimate=estimate))
                    del self._streams[key]
                    n_evicted += 1
                    if key is not None:
                        self.flow_table.remove(key)
        finally:
            # One O(flows) rebuild for the whole sweep: a per-eviction
            # ``list.remove`` would make a mass eviction O(evicted x flows),
            # a visible stall on monitors tracking tens of thousands of
            # flows.  Survivors keep their first-seen order.  Runs even if a
            # flush raised mid-sweep, so _flow_order and _streams can never
            # drift apart (a stale key would poison every later sweep).
            if n_evicted:
                self._flow_order = [key for key in self._flow_order if key in self._streams]
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
        * ``batch=True``: single-session batch scoring (the
          ``QoEPipeline.estimate`` backend); returns bare
          ``list[PipelineEstimate]`` truncated to the batch window grid
          ``[0, end_time)`` -- the stream also closes the window *starting*
          exactly at the last timestamp, which the batch contract excludes.
          Requires ``demux_flows=False`` and a fresh engine.  In trained
          mode the closed windows' accumulators are collected during the
          pass; their features are computed in one array pass and the
          per-metric forests run once over all windows (vectorized), which
          is row-for-row identical to predicting at each window close but
          avoids per-window overhead.
        """
        if not batch:
            emitted = list(self.process(packets))
            emitted.extend(self.flush())
            return emitted
        return self._collect_batch(packets)

    def _collect_batch(self, packets: Iterable[Packet]) -> list["PipelineEstimate"]:
        if self.demux_flows:
            raise RuntimeError("collect(batch=True) requires demux_flows=False (one session)")
        if self._streams:
            raise RuntimeError("collect(batch=True) requires a fresh engine")
        # The batch contract covers [start, end_time) in full, including
        # leading empty windows.
        self.backfill_limit = None
        if self.trained:
            self._feature_rows = []
        try:
            estimates = [emitted.estimate for emitted in self.process(packets)]
            estimates.extend(emitted.estimate for emitted in self.flush())
            stream = self._streams.get(None)
            watermark = stream._watermark if stream is not None else None
            if watermark is None:
                return []
            # Number of windows k with start + k*window_s < watermark.
            k = window_index(watermark, self.start, self.window_s)
            n_windows = k if self.start + k * self.window_s >= watermark else k + 1
            if self.trained:
                assert self._feature_rows is not None
                return self._predict_batch(self._feature_rows[:n_windows])
            return estimates[:n_windows]
        finally:
            self._feature_rows = None

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

    def _make_stream(self, key: FlowKey | None) -> _FlowStream:
        # Snapshot the engine's *current* knob values: collect(batch=True)
        # lifts backfill_limit after construction but before the first stream
        # exists, so per-stream configs must be derived lazily.
        stream_config = self.config.replace(
            backfill_limit=self.backfill_limit,
            max_frame_age_s=self.max_frame_age_s,
            reorder_depth=self.reorder_depth,
        )
        if self.trained:
            return _FlowStream(
                stream_config,
                classifier=self.pipeline.ml.media_classifier,
                assembler=None,
                predict=partial(self._window_closed, key),
            )
        return _FlowStream(
            stream_config,
            classifier=self.pipeline.heuristic.classifier,
            assembler=FrameAssembler(delta_size=self._delta_size, lookback=self._lookback),
            predict=None,
            obs=self.obs,
        )

    def _window_closed(
        self, key: FlowKey | None, acc: IPUDPFeatureAccumulator, window_start: float
    ):
        """Trained-mode predict dispatch for one closed window.

        Three behaviours behind one callback: defer to the batch adapter
        (``collect(batch=True)`` computes features and runs the forests once
        at the end), defer to the current tick (``push_block`` computes
        features and runs the forests once over every flow's closed
        windows), or predict immediately (plain ``push``).  Deferred windows return ``None`` so the
        owning stream emits nothing until the batch is resolved.  A closed
        window's accumulator is never extended again, so deferring it is
        safe.
        """
        if self._feature_rows is not None:
            self._feature_rows.append((acc, window_start))
            return None
        if self._tick_rows is not None:
            trigger_pos = self._streams[key].trigger_pos
            assert trigger_pos is not None  # tick windows close only inside push_rows
            self._tick_rows.append((key, acc, window_start, trigger_pos))
            return None
        return self._predict_rows(self._features([acc]), [window_start])[0]

    def _flush_tick(self) -> list[StreamEstimate]:
        """Resolve the current tick: one feature pass and one inference pass
        over every deferred window."""
        rows = self._tick_rows
        if not rows:
            return []
        self._tick_rows = []
        # Flows were processed one after another, so restore the per-packet
        # trigger order (stable on ties) before emitting.
        rows.sort(key=lambda row: row[3])
        estimates = self._predict_rows(
            self._features([acc for _, acc, _, _ in rows]),
            [window_start for _, _, window_start, _ in rows],
        )
        return [
            StreamEstimate(flow=key, estimate=estimate)
            for (key, _, _, _), estimate in zip(rows, estimates)
        ]

    def _features(self, accumulators: list[IPUDPFeatureAccumulator]) -> np.ndarray:
        """Feature matrix of closed windows (one array pass, see
        :func:`~repro.core.features.accumulated_features`)."""
        obs = self.obs
        if obs is None:
            return accumulated_features(accumulators)
        started = perf_counter()
        features = accumulated_features(accumulators)
        obs.time_stage("features", started)
        return features

    def _predict_batch(
        self, rows: list[tuple[IPUDPFeatureAccumulator, float]]
    ) -> list["PipelineEstimate"]:
        """One feature pass and one inference pass over all collected windows."""
        if not rows:
            return []
        return self._predict_rows(
            self._features([acc for acc, _ in rows]),
            [window_start for _, window_start in rows],
        )

    def _predict_rows(self, feature_rows, window_starts: list[float]) -> list["PipelineEstimate"]:
        """Run the trained per-metric forests once over ``feature_rows``."""
        from repro.core.pipeline import PipelineEstimate

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
