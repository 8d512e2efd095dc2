"""Frame-boundary estimation from IP/UDP headers (Algorithm 1).

The key insight (Section 3.2.1): VCAs fragment each frame into (nearly)
equal-sized packets, and consecutive frames have different sizes.  So a new
packet whose size is within ``delta_size`` bytes of one of the previous
``lookback`` packets most likely belongs to that packet's frame; otherwise it
starts a new frame.  The lookback absorbs bounded packet reordering.

Two implementations share the operator's bounded state:

* :meth:`FrameAssembler.push` -- the scalar reference: one packet at a time,
  a literal transcription of Algorithm 1 (Appendix B).
* :meth:`FrameAssembler.push_rows` -- the vectorized run path: a whole
  timestamp-sorted run of one flow's ``(size, timestamp)`` columns is
  assigned to frames with array operations (stacked lookback comparison,
  pointer-doubling boundary resolution, segment-reduced aggregates) and the
  lookback tail + open frames carry across run boundaries, so interleaving
  scalar pushes and vectorized runs is frame-for-frame identical to pushing
  every packet through :meth:`push`.

Frames assembled by the vectorized path carry aggregate columns only
(``n_packets``/``size_bytes``/``raw_size_bytes``/``start_time``/``end_time``);
the packet-list view on :class:`AssembledFrame` stays available where
evaluation and ground-truth code needs it (scalar pushes and the batch
:meth:`FrameAssembler.assemble` adapter, which attaches a lazy view).
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.net.packet import RTP_FIXED_HEADER_LEN, Packet
from repro.net.trace import PacketTrace

__all__ = ["AssembledFrame", "FrameAssembler", "FrameRun", "assemble_frames"]


class AssembledFrame:
    """A frame recovered by the heuristic: running aggregates, plus packets.

    The attributes every consumer is hot on (``n_packets``, ``size_bytes``,
    ``raw_size_bytes``, ``start_time``, ``end_time``) are running values
    updated on :meth:`add` -- the streaming engine polls ``end_time`` of
    every open frame at each window-close check, so they must not recompute
    over the packet list.  The packet list itself is optional: frames built
    by the scalar push path keep one (as before), frames built by the
    vectorized run path carry aggregates only (the batch adapter attaches a
    lazy view so evaluation code can still reach the packets).
    """

    __slots__ = (
        "frame_index",
        "n_packets",
        "size_bytes",
        "raw_size_bytes",
        "_start_time",
        "_end_time",
        "_packets",
        "_packet_src",
        "_packet_idx",
    )

    def __init__(self, frame_index: int, packets: list[Packet] | None = None) -> None:
        self.frame_index = frame_index
        self.n_packets = 0
        self.size_bytes = 0
        self.raw_size_bytes = 0
        self._start_time = math.inf
        self._end_time = -math.inf
        self._packets: list[Packet] | None = []
        self._packet_src: list[Packet] | None = None
        self._packet_idx: np.ndarray | None = None
        if packets:
            for packet in packets:
                self.add(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AssembledFrame(frame_index={self.frame_index}, "
            f"n_packets={self.n_packets}, size_bytes={self.size_bytes})"
        )

    @classmethod
    def _from_aggregates(
        cls,
        frame_index: int,
        n_packets: int,
        size_bytes: int,
        raw_size_bytes: int,
        start_time: float,
        end_time: float,
    ) -> "AssembledFrame":
        """Trusted constructor for aggregate-only frames (vectorized / wire)."""
        frame = cls(frame_index)
        frame.n_packets = n_packets
        frame.size_bytes = size_bytes
        frame.raw_size_bytes = raw_size_bytes
        frame._start_time = start_time
        frame._end_time = end_time
        frame._packets = None
        return frame

    def add(self, packet: Packet) -> None:
        if self._packets is not None:
            self._packets.append(packet)
        self.n_packets += 1
        self.size_bytes += packet.media_payload_size
        self.raw_size_bytes += packet.payload_size
        timestamp = packet.timestamp
        if timestamp < self._start_time:
            self._start_time = timestamp
        if timestamp > self._end_time:
            self._end_time = timestamp

    def _add_run(
        self,
        n_packets: int,
        size_bytes: int,
        raw_size_bytes: int,
        start_time: float,
        end_time: float,
    ) -> None:
        """Bulk :meth:`add` of one vectorized run segment (aggregates only)."""
        # A frame that gains rows through the array path can no longer vouch
        # for a complete packet list; drop the view rather than expose a
        # partial one.
        self._packets = None
        self._packet_src = None
        self._packet_idx = None
        self.n_packets += n_packets
        self.size_bytes += size_bytes
        self.raw_size_bytes += raw_size_bytes
        if start_time < self._start_time:
            self._start_time = start_time
        if end_time > self._end_time:
            self._end_time = end_time

    @property
    def packets(self) -> list[Packet]:
        """The frame's packets (evaluation / ground-truth view).

        Eager for scalar-assembled frames, materialized on first access for
        batch-assembled ones; unavailable for frames that only ever existed
        as aggregate columns (streaming block path).
        """
        if self._packets is None:
            if self._packet_src is None:
                raise ValueError(
                    "this AssembledFrame carries aggregate columns only; "
                    "its packet list was never retained"
                )
            assert self._packet_idx is not None
            self._packets = [self._packet_src[i] for i in self._packet_idx.tolist()]
            self._packet_src = None
            self._packet_idx = None
        return self._packets

    @property
    def start_time(self) -> float:
        return self._start_time

    @property
    def end_time(self) -> float:
        """Frame completion time: arrival of the last packet (the paper's ET_i)."""
        return self._end_time

    @property
    def true_frame_ids(self) -> set[int]:
        """Ground-truth frame ids covered by this assembled frame (evaluation only)."""
        return {p.frame_id for p in self.packets if p.frame_id is not None}

    @property
    def true_rtp_timestamps(self) -> set[int]:
        """Distinct RTP timestamps covered (evaluation only)."""
        return {p.rtp.timestamp for p in self.packets if p.rtp is not None}


class FrameRun:
    """Result of one :meth:`FrameAssembler.push_rows` call.

    ``finalized`` lists ``(row, frame)`` pairs in finalization order --
    ``row`` is the index (into the pushed arrays) of the packet whose push
    finalized the frame, exactly when scalar :meth:`FrameAssembler.push`
    would have returned it.

    The remaining attributes are per-frame placement for the streaming
    engine's window replay, as parallel sequences indexed by group ``g``
    (one group per frame the run touched, ascending ``frame_index``):
    ``frames[g]`` is the frame itself, ``occ_all[lo[g]:hi[g]]`` its run-row
    occurrences gained this run (ascending; empty for a carried frame that
    gained nothing), ``fin_rows[g]`` the run row whose push finalized it
    (``None`` if it survives the run), and ``prior_ends[g]`` its
    ``end_time`` before the run (``None`` unless carried in from earlier
    pushes).  ``occ_all`` is one shared array grouped by frame, so consumers
    can translate every occurrence with a single fancy-index.
    """

    __slots__ = ("finalized", "frames", "lo", "hi", "fin_rows", "prior_ends", "occ_all")

    def __init__(
        self,
        finalized: list[tuple[int, AssembledFrame]],
        frames: list[AssembledFrame],
        lo: np.ndarray,
        hi: np.ndarray,
        fin_rows: list[int | None],
        prior_ends: list[float | None],
        occ_all: np.ndarray,
    ) -> None:
        self.finalized = finalized
        self.frames = frames
        self.lo = lo
        self.hi = hi
        self.fin_rows = fin_rows
        self.prior_ends = prior_ends
        self.occ_all = occ_all


class FrameAssembler:
    """Implementation of Algorithm 1 (Appendix B), as an online operator.

    The assembler is a push-based stream processor: feed packets in arrival
    order with :meth:`push` (or whole sorted runs with :meth:`push_rows`) and
    collect frames as soon as they can no longer change.  The retained state
    is bounded by ``lookback`` -- the last ``lookback`` (timestamp, size,
    frame) assignments plus the (at most ``lookback``) frames those packets
    belong to -- so the assembler can run forever over a live capture without
    growing.  :meth:`assemble` is a thin batch adapter over the same state
    machine.

    Parameters
    ----------
    delta_size:
        Maximum packet-size difference (bytes) for two packets to be treated
        as part of the same frame (the paper uses 2 bytes for all VCAs).
    lookback:
        How many previously seen packets to compare against (``N_max``); the
        paper uses 3 for Meet, 2 for Teams and 1 for Webex.
    """

    def __init__(self, delta_size: float = 2.0, lookback: int = 2) -> None:
        if delta_size < 0:
            raise ValueError("delta_size must be non-negative")
        if lookback < 1:
            raise ValueError("lookback must be >= 1")
        self.delta_size = delta_size
        self.lookback = lookback
        self.reset()

    # -- streaming interface ---------------------------------------------------

    def reset(self) -> None:
        """Discard all streaming state (recent assignments and open frames)."""
        # The frame each recent packet was assigned to, most recent last:
        # (timestamp, payload_size, frame) triples -- one representation
        # shared by the scalar path, the vectorized path and finalize_stale.
        self._recent: deque[tuple[float, int, AssembledFrame]] = deque()
        # frame_index -> number of its packets still inside the lookback.
        self._live: dict[int, int] = {}
        self._open: dict[int, AssembledFrame] = {}
        self._next_index = 0

    @property
    def open_frames(self) -> list[AssembledFrame]:
        """Frames that may still gain packets (at most ``lookback`` of them)."""
        return [self._open[index] for index in sorted(self._open)]

    def push(self, packet: Packet) -> list[AssembledFrame]:
        """Feed one packet (non-decreasing arrival order).

        Returns the frames that became *final* as a result: a frame is final
        once none of its packets remain within the lookback, because no future
        packet can then join it.  Callers that need the paper's frame order
        should sort finalized frames by ``frame_index`` (creation order).
        """
        size = packet.payload_size
        assigned_frame: AssembledFrame | None = None
        for _, previous_size, frame in reversed(self._recent):
            if abs(previous_size - size) <= self.delta_size:
                assigned_frame = frame
                break
        if assigned_frame is None:
            assigned_frame = AssembledFrame(frame_index=self._next_index)
            self._next_index += 1
            self._open[assigned_frame.frame_index] = assigned_frame
            self._live[assigned_frame.frame_index] = 0
        assigned_frame.add(packet)
        self._recent.append((packet.timestamp, size, assigned_frame))
        self._live[assigned_frame.frame_index] += 1

        finalized: list[AssembledFrame] = []
        if len(self._recent) > self.lookback:
            _, _, old_frame = self._recent.popleft()
            index = old_frame.frame_index
            self._live[index] -= 1
            if self._live[index] == 0:
                del self._live[index]
                del self._open[index]
                finalized.append(old_frame)
        return finalized

    def push_rows(
        self,
        sizes: np.ndarray,
        media_sizes: np.ndarray,
        timestamps: np.ndarray,
        max_gap_s: float | None = None,
        horizon: float | None = None,
    ) -> FrameRun | None:
        """Feed a timestamp-sorted run of one flow's packet columns at once.

        Vectorized Algorithm 1: boundary detection is a stacked sliding
        comparison against the previous ``lookback`` sizes (most recent match
        wins, mirroring :meth:`push`'s ``reversed(self._recent)`` scan),
        frame membership resolves lookback joins into older frames by
        pointer doubling to each row's boundary root, and per-frame
        aggregates come from one stable sort + segment reduction.  The
        lookback tail carried in ``self._recent`` is prepended, so rows of
        this run join frames opened by earlier pushes exactly as scalar
        pushes would, and the post-run state (lookback tail, open frames,
        next frame index) is indistinguishable from having pushed every row
        through :meth:`push`.

        ``max_gap_s`` is the streaming engine's liveness guard: when given,
        the call first proves that no frame ever goes ``max_gap_s`` without
        gaining a packet, being finalized, or the run ending (``horizon``
        bounds the wait of frames still open at the end of the run).  If any
        frame could cross that bound, a concurrent ``finalize_stale`` sweep
        might evict it mid-run -- which shifts every later lookback pop -- so
        the call commits *nothing* and returns ``None``; the caller falls
        back to the scalar path, which interleaves eviction exactly.

        Returns a :class:`FrameRun` (finalized frames in finalization order
        plus per-frame placement spans), or ``None`` on the liveness bailout.
        """
        m = len(sizes)
        if m == 0:
            empty = np.empty(0, dtype=np.int64)
            return FrameRun([], [], empty, empty, [], [], empty)
        lookback = self.lookback
        recent = self._recent
        n_prev = len(recent)
        n = n_prev + m

        cols = np.empty((2, n), dtype=np.float64)
        all_sizes = cols[0]
        all_ts = cols[1]
        for i, (entry_ts, entry_size, _) in enumerate(recent):
            all_sizes[i] = entry_size
            all_ts[i] = entry_ts
        all_sizes[n_prev:] = sizes
        all_ts[n_prev:] = timestamps

        # Most-recent match within the lookback: smallest k in [1, lookback]
        # with |size[g] - size[g-k]| <= delta_size, exactly the reversed scan.
        matched = np.zeros(m, dtype=bool)
        offsets = np.zeros(m, dtype=np.int64)
        tail = all_sizes[n_prev:]
        for k in range(1, lookback + 1):
            lo = k - n_prev if k > n_prev else 0
            if lo >= m:
                break
            candidates = all_sizes[n_prev + lo - k : n - k]
            hit = ~matched[lo:] & (np.abs(tail[lo:] - candidates) <= self.delta_size)
            offsets[lo:][hit] = k
            matched[lo:] |= hit

        # Resolve every row to its boundary root (pointer doubling): a row
        # that joins via a row that itself joined an older frame must land in
        # that older frame, which a plain cumulative sum over boundary flags
        # would miss.
        parent = np.arange(n, dtype=np.int64)
        join_rows = np.flatnonzero(matched) + n_prev
        parent[join_rows] = join_rows - offsets[matched]
        while True:
            grandparent = parent[parent]
            if (grandparent == parent).all():
                break
            parent = grandparent

        # Frame id per combined position: carried entries keep their frame's
        # index; new boundary rows mint indices in creation (row) order.
        root_fid = np.empty(n, dtype=np.int64)
        for i, (_, _, entry_frame) in enumerate(recent):
            root_fid[i] = entry_frame.frame_index
        boundary_rows = np.flatnonzero(~matched)
        n_new = len(boundary_rows)
        root_fid[n_prev + boundary_rows] = self._next_index + np.arange(n_new)
        fid = root_fid[parent]

        # Group combined positions by frame (stable sort keeps positions
        # ascending within each group).
        order = np.argsort(fid, kind="stable")
        fid_sorted = fid[order]
        group_starts = np.flatnonzero(
            np.concatenate(([True], fid_sorted[1:] != fid_sorted[:-1]))
        )
        group_ends = np.concatenate((group_starts[1:], [n]))
        group_fids = fid_sorted[group_starts]
        group_last = group_ends - 1
        last_pos = order[group_last]

        # Per-group aggregates over the *new* rows only (carried entries are
        # already inside their frame's running aggregates).  New positions
        # sort after carried ones within a group, so they are each group's
        # tail.
        vals = np.zeros((3, n), dtype=np.int64)
        vals[0, n_prev:] = 1
        vals[1, n_prev:] = media_sizes
        vals[2, n_prev:] = sizes
        counts, media_sums, raw_sums = np.add.reduceat(vals[:, order], group_starts, axis=1)
        first_new = group_ends - counts  # index into `order` of each group's first new row
        ts_sorted = all_ts[order]

        # Finalization schedule: entry q pops when row q + lookback is pushed
        # (the deque never exceeds lookback entries mid-run -- max_gap_s
        # guarantees no stale eviction), so a frame finalizes at its last
        # occurrence + lookback if that row is inside the run.
        fin_pos = last_pos + lookback

        if max_gap_s is not None:
            # Liveness precheck (see docstring).  Every wait below is a
            # difference of timestamps inside [oldest carried entry, horizon],
            # so if that whole interval fits in max_gap_s (the overwhelmingly
            # common case) no frame can violate the bound -- skip the
            # per-frame arithmetic entirely.
            run_horizon = float(timestamps[-1]) if horizon is None else horizon
            first_ts = recent[0][0] if n_prev else float(timestamps[0])
            if run_horizon - first_ts > max_gap_s:
                # Gaps between a frame's consecutive occurrences,
                # carried-tail ts included:
                gaps = np.diff(ts_sorted)
                same_group = fid_sorted[1:] == fid_sorted[:-1]
                if bool(np.any(same_group & (gaps > max_gap_s))):
                    return None
                # ... and from each frame's final occurrence to its
                # finalization row (or the run horizon if it stays open).
                wait_until = np.where(
                    fin_pos < n, all_ts[np.minimum(fin_pos, n - 1)], run_horizon
                )
                if bool(np.any(wait_until - ts_sorted[group_last] > max_gap_s)):
                    return None

        # Commit: build/update frame objects and their placement.  Per-frame
        # Python work is the path's constant factor, so every per-group value
        # is pre-extracted into one zip of plain scalars and the frame
        # objects are built with direct slot stores.
        next_index = self._next_index
        open_table = self._open
        frames: list[AssembledFrame] = []
        prior_ends: list[float | None] = []
        append_frame = frames.append
        append_prior = prior_ends.append
        occ_all = order - n_prev
        new_frame = AssembledFrame.__new__
        for frame_id, count, media_sum, raw_sum, first_ts, end_ts in zip(
            group_fids.tolist(),
            counts.tolist(),
            media_sums.tolist(),
            raw_sums.tolist(),
            ts_sorted[np.minimum(first_new, n - 1)].tolist(),
            ts_sorted[group_last].tolist(),
        ):
            if frame_id < next_index:
                frame = open_table[frame_id]
                append_prior(frame._end_time)
                if count:
                    frame._add_run(count, media_sum, raw_sum, first_ts, end_ts)
            else:
                append_prior(None)
                frame = new_frame(AssembledFrame)
                frame.frame_index = frame_id
                frame.n_packets = count
                frame.size_bytes = media_sum
                frame.raw_size_bytes = raw_sum
                frame._start_time = first_ts
                frame._end_time = end_ts
                frame._packets = None
                frame._packet_src = None
                frame._packet_idx = None
            append_frame(frame)
        # Finalization order == row order: at most one frame finalizes per
        # pushed row, so sorting the finalizing groups by their fin row is a
        # stable total order.
        fin_rows_out: list[int | None] = [None] * len(frames)
        fin_groups = np.flatnonzero(fin_pos < n)
        fin_groups = fin_groups[np.argsort(fin_pos[fin_groups])]
        finalized = []
        for g, fin_row in zip(fin_groups.tolist(), (fin_pos[fin_groups] - n_prev).tolist()):
            fin_rows_out[g] = fin_row
            finalized.append((fin_row, frames[g]))

        # Post-run bounded state: the deque holds the last lookback combined
        # positions; open frames are exactly those with an entry in it.
        # Frames are recovered from their group (group_fids is sorted, so a
        # searchsorted per tail entry beats a full fid -> frame table).
        self._next_index = next_index + n_new
        tail_start = n - lookback if n > lookback else 0
        new_recent: deque[tuple[float, int, AssembledFrame]] = deque()
        live: dict[int, int] = {}
        open_frames: dict[int, AssembledFrame] = {}
        for q in range(tail_start, n):
            if q < n_prev:
                entry = recent[q]
                frame = entry[2]
            else:
                j = q - n_prev
                frame = frames[int(np.searchsorted(group_fids, fid[q]))]
                entry = (float(timestamps[j]), int(sizes[j]), frame)
            new_recent.append(entry)
            index = frame.frame_index
            live[index] = live.get(index, 0) + 1
            open_frames[index] = frame
        self._recent = new_recent
        self._live = live
        self._open = open_frames
        # Carried frames whose last entry popped mid-run left _open above via
        # reconstruction; frames still open keep their identity.
        return FrameRun(finalized, frames, first_new, group_ends, fin_rows_out, prior_ends, occ_all)

    def flush(self) -> list[AssembledFrame]:
        """Finalize and return the remaining open frames; resets the stream."""
        remaining = [self._open[index] for index in sorted(self._open)]
        self.reset()
        return remaining

    def finalize_stale(self, older_than: float) -> list[AssembledFrame]:
        """Force-finalize open frames whose last packet predates ``older_than``.

        Algorithm 1's lookback is packet-count based, so when a stream's video
        stalls (camera off, total loss) the last frame stays open indefinitely
        and a live monitor would stop emitting windows.  This evicts such
        frames -- and their entries in the lookback -- so estimate latency
        stays bounded in wall-clock terms.  Batch assembly never needs it.
        """
        stale = [frame for frame in self._open.values() if frame.end_time < older_than]
        if not stale:
            return []
        stale_ids = {frame.frame_index for frame in stale}
        self._recent = deque(
            entry for entry in self._recent if entry[2].frame_index not in stale_ids
        )
        for frame in stale:
            del self._open[frame.frame_index]
            del self._live[frame.frame_index]
        return sorted(stale, key=lambda f: f.frame_index)

    # -- batch adapters --------------------------------------------------------

    def assemble(self, packets) -> list[AssembledFrame]:
        """Group ``packets`` (in arrival order) into frames.

        Every packet is assigned to exactly one frame.  A packet joins the
        frame of the most recently seen packet (among the last ``lookback``)
        whose size is within ``delta_size`` bytes; otherwise it opens a new
        frame.  This is the batch adapter over :meth:`push_rows` -- one
        vectorized call over the sorted columns, frame-for-frame identical
        to pushing each packet -- with a lazy packet-list view attached to
        every frame so evaluation/ground-truth consumers keep working.

        .. warning:: This **resets the instance's streaming state** first --
           do not call it on an assembler that is concurrently being driven
           via :meth:`push`; give each live stream its own instance (as the
           streaming engine does).
        """
        self.reset()
        ordered = sorted(packets, key=lambda p: p.timestamp)
        if not ordered:
            return []
        count = len(ordered)
        sizes = np.fromiter((p.payload_size for p in ordered), np.int64, count)
        timestamps = np.fromiter((p.timestamp for p in ordered), np.float64, count)
        media_sizes = np.maximum(sizes - RTP_FIXED_HEADER_LEN, 0)
        run = self.push_rows(sizes, media_sizes, timestamps)
        assert run is not None  # no liveness bound in batch mode
        occ_all = run.occ_all
        lo_list = run.lo.tolist()
        hi_list = run.hi.tolist()
        for g, frame in enumerate(run.frames):
            frame._packet_src = ordered
            frame._packet_idx = occ_all[lo_list[g] : hi_list[g]]
        frames = [frame for _, frame in run.finalized]
        frames.extend(self.flush())
        frames.sort(key=lambda f: f.frame_index)
        return frames

    def assemble_trace(self, trace: PacketTrace) -> list[AssembledFrame]:
        return self.assemble(trace.packets)


def assemble_frames(
    packets, delta_size: float = 2.0, lookback: int = 2
) -> list[AssembledFrame]:
    """Convenience wrapper around :class:`FrameAssembler`."""
    return FrameAssembler(delta_size=delta_size, lookback=lookback).assemble(packets)


def intra_frame_size_differences(trace: PacketTrace) -> np.ndarray:
    """Maximum intra-frame packet size difference per ground-truth frame.

    Used to regenerate Figure 2 (intra-frame CDF).  Frames are identified by
    the ground-truth frame annotations; frames with fewer than two packets are
    skipped, as in the paper.
    """
    sizes_by_frame: dict[int, list[int]] = {}
    for packet in trace:
        if packet.frame_id is None:
            continue
        sizes_by_frame.setdefault(packet.frame_id, []).append(packet.payload_size)
    diffs = [
        max(sizes) - min(sizes)
        for sizes in sizes_by_frame.values()
        if len(sizes) >= 2
    ]
    return np.array(diffs, dtype=float)


def inter_frame_size_differences(trace: PacketTrace) -> np.ndarray:
    """Absolute size difference between the last packet of one ground-truth
    frame and the first packet of the next (Figure 2, inter-frame CDF)."""
    frames: dict[int, list[Packet]] = {}
    for packet in trace:
        if packet.frame_id is None:
            continue
        frames.setdefault(packet.frame_id, []).append(packet)
    ordered_frames = [
        sorted(packets, key=lambda p: p.timestamp)
        for _, packets in sorted(frames.items(), key=lambda item: min(p.timestamp for p in item[1]))
    ]
    diffs = []
    for previous, current in zip(ordered_frames, ordered_frames[1:]):
        diffs.append(abs(current[0].payload_size - previous[-1].payload_size))
    return np.array(diffs, dtype=float)
