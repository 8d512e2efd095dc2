"""Frame-boundary estimation from IP/UDP headers (Algorithm 1).

The key insight (Section 3.2.1): VCAs fragment each frame into (nearly)
equal-sized packets, and consecutive frames have different sizes.  So a new
packet whose size is within ``delta_size`` bytes of one of the previous
``lookback`` packets most likely belongs to that packet's frame; otherwise it
starts a new frame.  The lookback absorbs bounded packet reordering.

Two implementations share the operator's bounded state:

* :meth:`FrameAssembler.push` -- the scalar reference: one packet at a time,
  a literal transcription of Algorithm 1 (Appendix B).
* :func:`assemble_segments` -- the vectorized kernel: timestamp-sorted runs
  of many flows' ``(size, timestamp)`` columns, each continuing its own
  assembler's carried lookback tail, are assigned to frames in one pass of
  array operations (stacked lookback comparison under a same-segment mask,
  pointer-doubling boundary resolution, segment-reduced aggregates).  The
  streaming engine calls it once per block over every flow;
  :meth:`FrameAssembler.push_rows` is its one-segment call.  An assembler's
  whole state is its lookback tail of ``(timestamp, size, frame)`` entries
  (a frame is open exactly while an entry holds it) plus its next frame
  index; the tail carries across runs, so interleaving scalar pushes and
  vectorized runs is frame-for-frame identical to pushing every packet
  through :meth:`~FrameAssembler.push`.

Frames assembled by either path carry aggregate columns only
(``n_packets``/``size_bytes``/``raw_size_bytes``/``start_time``/``end_time``):
the assembler never retains a packet.  The kernel builds frame objects only
for frames that outlive its run; the rest stay its columns, which the
streaming engine files into windows directly (see :class:`SegmentedRun`).
Evaluation and ground-truth code that needs a frame's packets goes through
the batch :meth:`FrameAssembler.assemble` adapter, which attaches a lazy view.
"""

from __future__ import annotations

import math

import numpy as np

from repro.net.packet import RTP_FIXED_HEADER_LEN, Packet
from repro.net.trace import PacketTrace

__all__ = [
    "AssembledFrame",
    "FrameAssembler",
    "FrameRun",
    "SegmentedRun",
    "assemble_frames",
    "assemble_segments",
]


class AssembledFrame:
    """A frame recovered by a heuristic: running aggregates, plus packets.

    The attributes every consumer is hot on (``n_packets``, ``size_bytes``,
    ``raw_size_bytes``, ``start_time``, ``end_time``) are running values --
    the streaming engine polls ``end_time`` of every open frame at each
    window-close check, so they must not recompute over a packet list.
    Frames of :class:`FrameAssembler` (scalar :meth:`~FrameAssembler.push`
    and the vectorized kernel alike) carry these aggregates only; their
    packet view exists only through the batch
    :meth:`~FrameAssembler.assemble` adapter, which attaches a lazy one.
    A frame built packet by packet with :meth:`add` (the RTP-timestamp
    baseline) keeps its packet list.
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
        """Trusted constructor for aggregate-only frames."""
        frame = cls.__new__(cls)
        frame.frame_index = frame_index
        frame.n_packets = n_packets
        frame.size_bytes = size_bytes
        frame.raw_size_bytes = raw_size_bytes
        frame._start_time = start_time
        frame._end_time = end_time
        frame._packets = None
        frame._packet_src = None
        frame._packet_idx = None
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

    @property
    def packets(self) -> list[Packet]:
        """The frame's packets (evaluation / ground-truth view).

        Eager for frames built with :meth:`add`, materialized on first access
        for frames of the batch :meth:`FrameAssembler.assemble` adapter;
        unavailable for frames of the streaming assembler, which only ever
        exist as aggregate columns.
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

    ``frames`` lists every frame the run touched (carried-in frames first,
    then new frames in creation order); the pushed rows that joined frame
    ``g`` are ``occ_all[lo[g]:hi[g]]`` (ascending).  The batch adapter
    attaches its lazy packet views from these spans.
    """

    __slots__ = ("finalized", "frames", "lo", "hi", "occ_all")

    def __init__(
        self,
        finalized: list[tuple[int, AssembledFrame]],
        frames: list[AssembledFrame],
        lo: np.ndarray,
        hi: np.ndarray,
        occ_all: np.ndarray,
    ) -> None:
        self.finalized = finalized
        self.frames = frames
        self.lo = lo
        self.hi = hi
        self.occ_all = occ_all


class SegmentedRun:
    """What one :func:`assemble_segments` call did, per segment and per frame.

    Segment ``s`` is assembler ``s``'s carried lookback tail followed by its
    new rows.  Every frame a segment touches is one *group*; groups are
    segment-major and, within a segment, carried frames come first and new
    frames follow in creation order.  Per group ``g``:

    * ``g_seg[g]`` -- its segment; ``end_ts[g]`` / ``size_bytes[g]`` -- its
      ``end_time`` and ``size_bytes`` after the run; ``prior_ends[g]`` -- a
      carried frame's ``end_time`` before the run (NaN for a new frame);
    * ``occ[lo[g]:hi[g]]`` -- the flat new-row indices that joined it this
      run, ascending (empty for a carried frame that gained nothing);
    * ``frames[g]`` -- the frame (``None`` in a bailed segment).

    ``fin_groups`` are the groups finalized by a row of this run, in
    finalization order, and ``fin_rows`` the flat new-row index whose push
    finalized each.  ``bail`` is the per-segment liveness verdict (``None``
    when no ``max_gap_s`` was given).

    The kernel builds :class:`AssembledFrame` objects only for the frames
    that outlive the run (the lookback tails hold them).  A frame that is
    created and finalized inside the run is the columns above until
    ``frames`` is first read, which materializes it; the streaming engine
    buckets finalized frames from ``end_ts`` / ``size_bytes`` and never
    reads ``frames``.
    """

    __slots__ = (
        "bail", "g_seg", "prior_ends", "end_ts", "size_bytes", "lo", "hi", "occ", "fin_groups",
        "fin_rows", "_frames", "_unbuilt",
    )

    @property
    def frames(self) -> list[AssembledFrame | None]:
        """Every group's frame, in group order (``None`` in a bailed segment)."""
        if self._unbuilt is not None:
            for g, *aggregates in zip(*(column.tolist() for column in self._unbuilt)):
                self._frames[g] = AssembledFrame._from_aggregates(*aggregates)
            self._unbuilt = None
        return self._frames


def assemble_segments(
    assemblers: list["FrameAssembler"],
    sizes: np.ndarray,
    media_sizes: np.ndarray,
    timestamps: np.ndarray,
    bounds: np.ndarray,
    max_gap_s: float | None = None,
    horizons: np.ndarray | None = None,
) -> SegmentedRun:
    """Vectorized Algorithm 1 over one timestamp-sorted run per assembler.

    Segment ``s``'s new rows are ``sizes[bounds[s]:bounds[s + 1]]`` (and the
    same slices of ``media_sizes`` / ``timestamps``); they continue
    ``assemblers[s]``'s stream, whose carried lookback tail a light loop
    gathers and prepends.  All assemblers must share ``delta_size`` and
    ``lookback``.  Then, once for all segments:

    * boundary detection is the stacked comparison against the previous
      ``lookback`` sizes under a same-segment mask (most recent match wins,
      mirroring :meth:`FrameAssembler.push`'s ``reversed(self._recent)``
      scan);
    * frame membership resolves lookback joins into older frames by pointer
      doubling to each row's root (carried entries of one frame are linked
      to its first carried entry, so the frame has one root);
    * per-frame aggregates come from one stable sort by root and one
      segment reduction; a frame finalizes when the row ``lookback``
      positions past its last entry is pushed, if that row is in the run.

    Every kept segment that gained rows is then written back: carried
    frames gain their rows in place, the frames that outlive the run are
    built aggregate-only, and the assembler's state becomes the last
    ``lookback`` combined positions as ``(timestamp, size, frame)`` entries
    plus its bumped next frame index -- the state scalar
    :meth:`FrameAssembler.push` would have left.

    ``max_gap_s`` is the streaming engine's liveness guard: segment ``s``
    bails (``bail[s]``) when any of its frames could go ``max_gap_s``
    without gaining a packet or being finalized before ``horizons[s]``.  A
    concurrent ``finalize_stale`` sweep could then evict that frame mid-run,
    which shifts every later lookback pop, so nothing is written for that
    segment and the caller replays it through :meth:`FrameAssembler.push`.
    The test compares ``end < wait_until - max_gap_s`` -- the sweep's own
    ``end_time < watermark - max_frame_age_s`` at the latest watermark the
    frame could see -- so it never misses a sweep that would evict.
    """
    lookback = assemblers[0].lookback
    n_segments = len(assemblers)
    carried: list[tuple[float, int, AssembledFrame]] = []
    n_carried: list[int] = []
    next_index: list[int] = []
    for assembler in assemblers:
        recent = assembler._recent
        n_carried.append(len(recent))
        next_index.append(assembler._next_index)
        carried += recent
    carried_ts = [entry[0] for entry in carried]
    carried_sizes = [entry[1] for entry in carried]
    carried_frames = [entry[2] for entry in carried]

    # The combined position space: each segment's carried entries, then its
    # new rows.
    seg_len = np.array(n_carried, dtype=np.int64) + np.diff(bounds)
    cstart = np.zeros(n_segments + 1, dtype=np.int64)
    np.cumsum(seg_len, out=cstart[1:])
    total = int(cstart[-1])
    seg_of = np.repeat(np.arange(n_segments), seg_len)
    local = np.arange(total) - cstart[seg_of]
    new = local >= np.repeat(n_carried, seg_len)
    all_sizes = np.empty(total, dtype=np.int64)
    all_ts = np.empty(total, dtype=np.float64)
    all_sizes[new] = sizes
    all_ts[new] = timestamps
    all_sizes[~new] = carried_sizes
    all_ts[~new] = carried_ts

    # Most-recent match within the lookback: smallest k in [1, lookback]
    # with |size[i] - size[i-k]| <= delta_size, i-k in the same segment.
    parent = np.arange(total)
    matched = np.zeros(total, dtype=bool)
    for k in range(1, min(lookback, total - 1) + 1):
        hit = new[k:] & (local[k:] >= k) & ~matched[k:]
        hit &= np.abs(all_sizes[k:] - all_sizes[:-k]) <= assemblers[0].delta_size
        rows = np.flatnonzero(hit) + k
        parent[rows] = rows - k
        matched[rows] = True
    carried_pos = np.flatnonzero(~new)
    carried_fid = np.array([frame.frame_index for frame in carried_frames], dtype=np.int64)
    for k in range(1, min(lookback, len(carried_pos))):
        same = (local[carried_pos[k:]] >= k) & (carried_fid[k:] == carried_fid[:-k])
        parent[carried_pos[k:][same]] = carried_pos[:-k][same]
    # Resolve every row to its root (pointer doubling): a row that joins via
    # a row that itself joined an older frame must land in that older frame,
    # which a plain cumulative sum over boundary flags would miss.
    while True:
        grandparent = parent[parent]
        if (grandparent == parent).all():
            break
        parent = grandparent

    # Group combined positions by root (the stable sort keeps positions
    # ascending within each group; roots ascend segment by segment).
    order = np.argsort(parent, kind="stable")
    root_sorted = parent[order]
    head = np.ones(total, dtype=bool)
    np.not_equal(root_sorted[1:], root_sorted[:-1], out=head[1:])
    group_starts = np.flatnonzero(head)
    group_ends = np.append(group_starts[1:], total) if total else group_starts
    g_root = root_sorted[group_starts]
    g_seg = seg_of[g_root]
    last_pos = order[group_ends - 1]
    new_rank = np.cumsum(new) - 1
    new_sorted = new[order]
    occ = np.where(new_sorted, new_rank[order], -1)
    joined = occ[new_sorted]
    vals = np.zeros((3, total), dtype=np.int64)
    vals[0] = new_sorted
    vals[1, new_sorted] = media_sizes[joined]
    vals[2, new_sorted] = sizes[joined]
    counts, media_sums, raw_sums = (
        np.add.reduceat(vals, group_starts, axis=1) if total else vals
    )
    first_new = group_ends - counts
    ts_sorted = all_ts[order]
    end_ts = all_ts[last_pos]
    fin_pos = last_pos + lookback
    finalizes = fin_pos < cstart[1:][g_seg]

    run = SegmentedRun()
    run.bail = None
    kept_seg = np.ones(n_segments, dtype=bool)
    if max_gap_s is not None:
        assert horizons is not None
        # The latest watermark each frame can see while open: its
        # finalizing row, or the segment horizon if it outlives the run ...
        wait_until = np.where(finalizes, all_ts[np.minimum(fin_pos, total - 1)], horizons[g_seg])
        kept_seg[g_seg[end_ts < wait_until - max_gap_s]] = False
        # ... and between a frame's consecutive entries.
        stalls = np.flatnonzero(~head[1:] & (ts_sorted[:-1] < ts_sorted[1:] - max_gap_s))
        kept_seg[seg_of[order[stalls + 1]]] = False
        run.bail = ~kept_seg

    # Commit.  Per-group Python work is the kernel's constant factor, so it
    # touches only carried frames and the new frames that outlive the run;
    # the rest stay columns (see SegmentedRun).  A carried frame's group is
    # its carried entries (arrival order, so the last one holds its end
    # time) followed by its new rows.  A new frame's index is its segment's
    # next index plus its rank among the segment's boundary rows.
    minted = np.cumsum(new & ~matched)
    minted_before = np.concatenate(([0], minted))[cstart]
    g_fid = np.array(next_index, dtype=np.int64)[g_seg] + minted[g_root] - 1 - minted_before[g_seg]
    g_first_ts = ts_sorted[np.minimum(first_new, total - 1)]
    kept = kept_seg[g_seg]
    is_new = new[g_root]
    frames: list[AssembledFrame | None] = [None] * len(g_seg)
    old = np.flatnonzero(kept & ~is_new)
    old_frames = [carried_frames[c] for c in (np.cumsum(~new) - 1)[g_root[old]].tolist()]
    for g, frame in zip(old.tolist(), old_frames):
        frames[g] = frame
    size_bytes = media_sums.copy()
    size_bytes[old] += np.array([frame.size_bytes for frame in old_frames], dtype=np.int64)
    prior_ends = np.full(len(g_seg), np.nan)
    prior_ends[old] = ts_sorted[first_new[old] - 1]
    grew = old[counts[old] > 0]
    for g, count, media_sum, raw_sum, first_ts, last_ts in zip(
        grew.tolist(), *(column[grew].tolist() for column in (counts, media_sums, raw_sums, g_first_ts, end_ts))
    ):
        frame = frames[g]
        frame.n_packets += count
        frame.size_bytes += media_sum
        frame.raw_size_bytes += raw_sum
        if first_ts < frame._start_time:
            frame._start_time = first_ts
        if last_ts > frame._end_time:
            frame._end_time = last_ts
    columns = (g_fid, counts, media_sums, raw_sums, g_first_ts, end_ts)
    outliving = np.flatnonzero(kept & is_new & ~finalizes)
    new_frame = AssembledFrame.__new__
    for g, frame_id, count, media_sum, raw_sum, first_ts, last_ts in zip(
        outliving.tolist(), *(column[outliving].tolist() for column in columns)
    ):
        frame = frames[g] = new_frame(AssembledFrame)
        frame.frame_index = frame_id
        frame.n_packets = count
        frame.size_bytes = media_sum
        frame.raw_size_bytes = raw_sum
        frame._start_time = first_ts
        frame._end_time = last_ts
        frame._packets = frame._packet_src = frame._packet_idx = None
    unbuilt = np.flatnonzero(kept & is_new & finalizes)
    run._frames = frames
    run._unbuilt = (unbuilt, *(column[unbuilt] for column in columns))

    # Post-run state of every kept segment that gained rows: its lookback
    # tail is the last ``lookback`` combined positions.
    segments = np.flatnonzero(kept_seg & (np.diff(bounds) > 0))
    tail_len = np.minimum(seg_len[segments], lookback)
    tail_pos = np.repeat(cstart[segments + 1] - tail_len, tail_len) + (
        np.arange(int(tail_len.sum())) - np.repeat(np.cumsum(tail_len) - tail_len, tail_len)
    )
    group_of_pos = np.empty(total, dtype=np.int64)
    group_of_pos[order] = np.cumsum(head) - 1
    tail_frames = [frames[g] for g in group_of_pos[tail_pos].tolist()]
    tail = list(zip(all_ts[tail_pos].tolist(), all_sizes[tail_pos].tolist(), tail_frames))
    q = 0
    for s, n_tail, n_minted in zip(
        segments.tolist(), tail_len.tolist(), np.diff(minted_before)[segments].tolist()
    ):
        assembler = assemblers[s]
        assembler._recent = tail[q : q + n_tail]
        assembler._next_index += n_minted
        q += n_tail

    # At most one frame finalizes per pushed row, so ordering the finalizing
    # groups by their finalizing position is a total order (segment-major,
    # row order within a segment).
    fin_groups = np.flatnonzero(finalizes & kept)
    by_pos = np.argsort(fin_pos[fin_groups])
    run.fin_groups = fin_groups[by_pos]
    run.fin_rows = new_rank[fin_pos[run.fin_groups]]
    run.g_seg = g_seg
    run.prior_ends = prior_ends
    run.end_ts = end_ts
    run.size_bytes = size_bytes
    run.lo = first_new
    run.hi = group_ends
    run.occ = occ
    return run


class FrameAssembler:
    """Implementation of Algorithm 1 (Appendix B), as an online operator.

    The assembler is a push-based stream processor: feed packets in arrival
    order with :meth:`push` (or whole sorted runs with :meth:`push_rows`) and
    collect frames as soon as they can no longer change.  The retained state
    is bounded by ``lookback`` -- the last ``lookback`` (timestamp, size,
    frame) assignments; a frame is open exactly while one of them holds it --
    so the assembler can run forever over a live capture without growing.
    :meth:`assemble` is a thin batch adapter over the same state machine.

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
        """Discard all streaming state (the lookback tail and its open frames)."""
        # The whole state: the frame each recent packet was assigned to, most
        # recent last, as (timestamp, payload_size, frame) triples -- one
        # representation shared by the scalar path, the vectorized path and
        # finalize_stale.  A frame is open exactly while an entry holds it.
        # (A short list, not a deque: at most lookback + 1 entries, and one
        # per flow at a vantage point, where a deque's block costs ~10x.)
        self._recent: list[tuple[float, int, AssembledFrame]] = []
        self._next_index = 0

    @property
    def open_frames(self) -> list[AssembledFrame]:
        """Frames that may still gain packets: those the lookback tail holds
        (at most ``lookback``), in creation order."""
        frames = {entry[2].frame_index: entry[2] for entry in self._recent}
        return [frames[index] for index in sorted(frames)]

    def push(self, packet: Packet) -> list[AssembledFrame]:
        """Feed one packet (non-decreasing arrival order).

        Returns the frames that became *final* as a result: a frame is final
        once none of its packets remain within the lookback, because no future
        packet can then join it.  Callers that need the paper's frame order
        should sort finalized frames by ``frame_index`` (creation order).

        Like the vectorized kernel's, these frames carry aggregate columns
        only: the packet is folded into its frame's running aggregates and
        not retained (see :attr:`AssembledFrame.packets`).
        """
        size = packet.payload_size
        timestamp = packet.timestamp
        media = size - RTP_FIXED_HEADER_LEN if size > RTP_FIXED_HEADER_LEN else 0
        recent = self._recent
        for _, previous_size, frame in reversed(recent):
            if abs(previous_size - size) <= self.delta_size:
                frame.n_packets += 1
                frame.size_bytes += media
                frame.raw_size_bytes += size
                if timestamp < frame._start_time:
                    frame._start_time = timestamp
                if timestamp > frame._end_time:
                    frame._end_time = timestamp
                break
        else:
            index = self._next_index
            frame = AssembledFrame._from_aggregates(index, 1, media, size, timestamp, timestamp)
            self._next_index = index + 1
        recent.append((timestamp, size, frame))
        if len(recent) <= self.lookback:
            return []
        popped = recent.pop(0)[2]
        for entry in recent:
            if entry[2] is popped:
                return []
        return [popped]

    def push_rows(
        self,
        sizes: np.ndarray,
        media_sizes: np.ndarray,
        timestamps: np.ndarray,
        max_gap_s: float | None = None,
        horizon: float | None = None,
    ) -> FrameRun | None:
        """Feed a timestamp-sorted run of one flow's packet columns at once.

        The one-segment call of :func:`assemble_segments` (the streaming
        engine runs the same kernel over every flow of a block at once): the
        lookback tail carried in ``self._recent`` is prepended, so rows of
        this run join frames opened by earlier pushes exactly as scalar
        pushes would, and the post-run state (lookback tail, open frames,
        next frame index) is indistinguishable from having pushed every row
        through :meth:`push`.

        ``max_gap_s`` is the streaming engine's liveness guard: when given,
        the call first proves that no frame ever goes ``max_gap_s`` without
        gaining a packet, being finalized, or the run ending (``horizon``
        bounds the wait of frames still open at the end of the run; default:
        the last timestamp).  If any frame could cross that bound, a
        concurrent ``finalize_stale`` sweep might evict it mid-run -- which
        shifts every later lookback pop -- so the call commits *nothing* and
        returns ``None``; the caller falls back to the scalar path, which
        interleaves eviction exactly.

        Returns a :class:`FrameRun` (finalized frames in finalization order
        plus per-frame row spans), or ``None`` on the liveness bailout.
        """
        m = len(sizes)
        if m == 0:
            empty = np.empty(0, dtype=np.int64)
            return FrameRun([], [], empty, empty, empty)
        if horizon is None:
            horizon = float(timestamps[-1])
        run = assemble_segments(
            [self], sizes, media_sizes, timestamps, np.array([0, m]),
            max_gap_s=max_gap_s, horizons=np.array([horizon]),
        )
        if run.bail is not None and run.bail[0]:
            return None
        frames = run.frames  # materializes the frames the kernel kept as columns
        finalized = [
            (row, frames[g]) for g, row in zip(run.fin_groups.tolist(), run.fin_rows.tolist())
        ]
        return FrameRun(finalized, frames, run.lo, run.hi, run.occ)

    def flush(self) -> list[AssembledFrame]:
        """Finalize and return the remaining open frames; resets the stream."""
        remaining = self.open_frames
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
        recent = self._recent
        if all(entry[2].end_time >= older_than for entry in recent):
            return []
        stale = [frame for frame in self.open_frames if frame.end_time < older_than]
        self._recent = [entry for entry in recent if entry[2].end_time >= older_than]
        return stale

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
