"""Unit tests for Algorithm 1 (frame assembly) and the frame-size analyses."""

import random

import numpy as np
import pytest

from repro.core.frame_assembly import (
    FrameAssembler,
    assemble_frames,
    inter_frame_size_differences,
    intra_frame_size_differences,
)
from repro.net.packet import RTP_FIXED_HEADER_LEN, IPv4Header, MediaType, Packet, UDPHeader


def make_packet(timestamp, size, frame_id=None):
    return Packet(
        timestamp=timestamp,
        ip=IPv4Header(src="1.1.1.1", dst="2.2.2.2"),
        udp=UDPHeader(src_port=1, dst_port=2),
        payload_size=size,
        media_type=MediaType.VIDEO,
        frame_id=frame_id,
    )


class TestFrameAssembler:
    def test_equal_sized_packets_form_one_frame(self):
        packets = [make_packet(0.001 * i, 1000) for i in range(5)]
        frames = assemble_frames(packets, delta_size=2, lookback=2)
        assert len(frames) == 1
        assert frames[0].n_packets == 5

    def test_size_change_starts_new_frame(self):
        packets = [make_packet(0.001, 1000), make_packet(0.002, 1000), make_packet(0.034, 950), make_packet(0.035, 950)]
        frames = assemble_frames(packets, delta_size=2, lookback=2)
        assert len(frames) == 2
        assert [f.n_packets for f in frames] == [2, 2]

    def test_every_packet_assigned_exactly_once(self):
        rng = np.random.default_rng(0)
        packets = [make_packet(0.001 * i, int(rng.integers(500, 1200))) for i in range(200)]
        frames = assemble_frames(packets, delta_size=2, lookback=3)
        assert sum(f.n_packets for f in frames) == 200

    def test_within_threshold_difference_groups_together(self):
        packets = [make_packet(0.001, 1000), make_packet(0.002, 1002), make_packet(0.003, 998)]
        # With lookback 2 the third packet (998) is 4 bytes away from the most
        # recent packet (1002) but matches the older 1000-byte packet, so all
        # three are grouped into a single frame.
        assert len(assemble_frames(packets, delta_size=2, lookback=2)) == 1
        # With lookback 1 it can only compare against 1002 and opens a new frame.
        assert len(assemble_frames(packets, delta_size=2, lookback=1)) == 2

    def test_lookback_recovers_reordered_packet(self):
        # Frame A: 1000,1000 ; frame B: 900 ; then a late packet of frame A (1000).
        packets = [
            make_packet(0.001, 1000),
            make_packet(0.002, 1000),
            make_packet(0.034, 900),
            make_packet(0.035, 1000),
        ]
        with_lookback = assemble_frames(packets, delta_size=2, lookback=2)
        without_lookback = assemble_frames(packets, delta_size=2, lookback=1)
        # With lookback 2 the late packet rejoins frame A (2 frames total);
        # with lookback 1 it opens a third frame.
        assert len(with_lookback) == 2
        assert len(without_lookback) == 3

    def test_frames_ordered_and_attributes(self):
        packets = [make_packet(0.01, 1000, frame_id=1), make_packet(0.05, 900, frame_id=2)]
        frames = assemble_frames(packets, delta_size=2, lookback=1)
        assert frames[0].start_time == 0.01
        assert frames[0].end_time == 0.01
        assert frames[0].raw_size_bytes == 1000
        assert frames[0].size_bytes == 1000 - 12
        assert frames[0].true_frame_ids == {1}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FrameAssembler(delta_size=-1.0)
        with pytest.raises(ValueError):
            FrameAssembler(lookback=0)

    def test_empty_input(self):
        assert assemble_frames([]) == []

    def test_assembly_on_simulated_call_is_close_to_true_frame_count(self, webex_call):
        """Under clean conditions the heuristic frame count should be within
        ~20% of the true number of frames (Webex fragments most cleanly)."""
        from repro.core.heuristic import IPUDPHeuristic
        from repro.webrtc.profiles import get_profile

        heuristic = IPUDPHeuristic.for_profile(get_profile("webex"))
        frames = heuristic.assemble(webex_call.trace)
        true_frames = {p.frame_id for p in webex_call.trace if p.frame_id is not None}
        assert abs(len(frames) - len(true_frames)) / len(true_frames) < 0.25


def _frame_key(frame):
    return (
        frame.frame_index,
        frame.n_packets,
        frame.size_bytes,
        frame.raw_size_bytes,
        frame.start_time,
        frame.end_time,
    )


def _state_key(assembler):
    return (
        [(ts, size, frame.frame_index) for ts, size, frame in assembler._recent],
        {index: _frame_key(frame) for index, frame in assembler._open.items()},
        dict(assembler._live),
        assembler._next_index,
    )


def _push_scalar(assembler, packets):
    finalized = []
    for packet in packets:
        finalized.extend(assembler.push(packet))
    return finalized


def _push_vectorized(assembler, packets):
    """Push one timestamp-sorted chunk through the array entry point."""
    count = len(packets)
    sizes = np.fromiter((p.payload_size for p in packets), np.int64, count)
    timestamps = np.fromiter((p.timestamp for p in packets), np.float64, count)
    media = np.maximum(sizes - RTP_FIXED_HEADER_LEN, 0)
    run = assembler.push_rows(sizes, media, timestamps)
    assert run is not None
    rows = [row for row, _ in run.finalized]
    assert rows == sorted(rows)  # finalization order == row order
    return [frame for _, frame in run.finalized]


def _random_trace(rng, n, tie_heavy):
    """Random sorted trace; ``tie_heavy`` draws from a small size alphabet so
    duplicate sizes inside the lookback and exact ``abs diff == delta_size``
    ties are common."""
    alphabet = (1000, 1002, 998, 950, 948, 700)
    packets = []
    ts = 0.0
    for _ in range(n):
        ts += rng.random() * 0.01
        if tie_heavy:
            size = rng.choice(alphabet)
        else:
            size = rng.randrange(100, 1300)
        packets.append(make_packet(ts, size))
    return packets


class TestPushRowsEquivalence:
    """Property fuzz: vectorized ``push_rows`` == scalar ``push``, frame for
    frame, finalization order and post-run state included, across arbitrary
    run splits."""

    @pytest.mark.parametrize("lookback", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces_random_splits(self, lookback, seed):
        rng = random.Random(seed * 31 + lookback)
        packets = _random_trace(rng, rng.randint(1, 120), tie_heavy=rng.random() < 0.5)
        cuts = sorted(rng.sample(range(len(packets) + 1), k=min(4, len(packets))))
        scalar = FrameAssembler(delta_size=2, lookback=lookback)
        vector = FrameAssembler(delta_size=2, lookback=lookback)
        expected = _push_scalar(scalar, packets)
        got = []
        for lo, hi in zip([0] + cuts, cuts + [len(packets)]):
            if hi > lo:
                got.extend(_push_vectorized(vector, packets[lo:hi]))
        assert [_frame_key(f) for f in got] == [_frame_key(f) for f in expected]
        assert _state_key(vector) == _state_key(scalar)
        assert [_frame_key(f) for f in vector.flush()] == [
            _frame_key(f) for f in scalar.flush()
        ]

    @pytest.mark.parametrize("lookback", [1, 2, 3])
    def test_every_cut_point(self, lookback):
        packets = _random_trace(random.Random(7), 14, tie_heavy=True)
        scalar = FrameAssembler(delta_size=2, lookback=lookback)
        expected = _push_scalar(scalar, packets)
        expected_state = _state_key(scalar)
        for cut in range(len(packets) + 1):
            vector = FrameAssembler(delta_size=2, lookback=lookback)
            got = []
            for chunk in (packets[:cut], packets[cut:]):
                if chunk:
                    got.extend(_push_vectorized(vector, chunk))
            assert [_frame_key(f) for f in got] == [_frame_key(f) for f in expected], cut
            assert _state_key(vector) == expected_state, cut

    def test_exact_delta_tie_joins_most_recent(self):
        # 1000 then 1002: abs diff == delta_size joins; the third packet
        # (1000) is within delta of *both* recent entries and must join via
        # the most recent (1002), not open a new frame or pick the older one.
        packets = [make_packet(0.001, 1000), make_packet(0.002, 1002), make_packet(0.003, 1000)]
        scalar = FrameAssembler(delta_size=2, lookback=2)
        vector = FrameAssembler(delta_size=2, lookback=2)
        _push_scalar(scalar, packets)
        _push_vectorized(vector, packets)
        assert _state_key(vector) == _state_key(scalar)
        assert len(vector._open) == 1

    def test_duplicate_sizes_most_recent_wins(self):
        # Two open frames both containing 1000-byte packets inside the
        # lookback: the newcomer joins the most recently touched frame.
        sizes = [1000, 500, 1000, 1000]
        packets = [make_packet(0.001 * (i + 1), s) for i, s in enumerate(sizes)]
        for lookback in (2, 3):
            scalar = FrameAssembler(delta_size=2, lookback=lookback)
            vector = FrameAssembler(delta_size=2, lookback=lookback)
            expected = _push_scalar(scalar, packets)
            got = _push_vectorized(vector, packets)
            assert [_frame_key(f) for f in got] == [_frame_key(f) for f in expected]
            assert _state_key(vector) == _state_key(scalar)

    def test_single_packet_frames(self):
        # Strictly spreading sizes: every packet opens (and soon finalizes)
        # its own frame.
        packets = [make_packet(0.001 * (i + 1), 100 + 10 * i) for i in range(20)]
        scalar = FrameAssembler(delta_size=2, lookback=3)
        vector = FrameAssembler(delta_size=2, lookback=3)
        expected = _push_scalar(scalar, packets)
        got = _push_vectorized(vector, packets)
        assert len(expected) == 17  # 20 frames, the last `lookback` still open
        assert [_frame_key(f) for f in got] == [_frame_key(f) for f in expected]
        assert _state_key(vector) == _state_key(scalar)

    @pytest.mark.parametrize("seed", range(4))
    def test_finalize_stale_between_runs(self, seed):
        """``finalize_stale`` sweeps interleave with vectorized runs exactly
        as they do with scalar pushes at the same trace positions."""
        rng = random.Random(100 + seed)
        packets = _random_trace(rng, 80, tie_heavy=True)
        # Inject stalls so the sweeps actually evict something.
        stall_at = sorted(rng.sample(range(1, 79), k=3))
        shift = 0.0
        shifted = []
        for i, packet in enumerate(packets):
            if i in stall_at:
                shift += 5.0
            shifted.append(make_packet(packet.timestamp + shift, packet.payload_size))
        cuts = sorted(rng.sample(range(1, 80), k=5))
        scalar = FrameAssembler(delta_size=2, lookback=2)
        vector = FrameAssembler(delta_size=2, lookback=2)
        expected, got = [], []
        for lo, hi in zip([0] + cuts, cuts + [80]):
            chunk = shifted[lo:hi]
            if not chunk:
                continue
            expected.extend(_push_scalar(scalar, chunk))
            got.extend(_push_vectorized(vector, chunk))
            older_than = chunk[-1].timestamp - 1.0
            expected.extend(scalar.finalize_stale(older_than))
            got.extend(vector.finalize_stale(older_than))
            assert _state_key(vector) == _state_key(scalar)
        assert [_frame_key(f) for f in got] == [_frame_key(f) for f in expected]

    def test_liveness_bailout_commits_nothing(self):
        """With ``max_gap_s`` set, a run a concurrent stale sweep could cut
        into returns ``None`` and leaves the assembler untouched."""
        assembler = FrameAssembler(delta_size=2, lookback=2)
        _push_scalar(assembler, [make_packet(0.001, 1000), make_packet(0.002, 1000)])
        before = _state_key(assembler)
        sizes = np.array([700, 700], dtype=np.int64)
        media = np.maximum(sizes - RTP_FIXED_HEADER_LEN, 0)
        # 9-second gap before the run: the carried 1000-byte frame would sit
        # unfinalized past the 2 s bound while these rows push.
        timestamps = np.array([9.0, 9.001], dtype=np.float64)
        assert assembler.push_rows(sizes, media, timestamps, max_gap_s=2.0) is None
        assert _state_key(assembler) == before
        # Without the bound the same run commits: the carried frame's entries
        # pop out of the lookback, finalizing it.
        run = assembler.push_rows(sizes, media, timestamps)
        assert run is not None
        assert [frame.frame_index for _, frame in run.finalized] == [0]
        assert len(assembler._open) == 1

    def test_empty_run_is_a_no_op(self):
        assembler = FrameAssembler(delta_size=2, lookback=2)
        _push_scalar(assembler, [make_packet(0.001, 1000)])
        before = _state_key(assembler)
        empty_i = np.empty(0, dtype=np.int64)
        run = assembler.push_rows(empty_i, empty_i, np.empty(0, dtype=np.float64))
        assert run is not None and run.finalized == [] and run.frames == []
        assert _state_key(assembler) == before

    def test_batch_assemble_output_order_pinned(self):
        """The batch adapter rides the vectorized path but keeps creation
        order and per-frame packet lists (lazy view)."""
        rng = random.Random(5)
        packets = _random_trace(rng, 60, tie_heavy=True)
        frames = FrameAssembler(delta_size=2, lookback=2).assemble(packets)
        assert [f.frame_index for f in frames] == sorted(f.frame_index for f in frames)
        assert sum(f.n_packets for f in frames) == 60
        for frame in frames:
            assert len(frame.packets) == frame.n_packets
            assert sum(p.payload_size for p in frame.packets) == frame.raw_size_bytes
            assert min(p.timestamp for p in frame.packets) == frame.start_time

    @pytest.mark.parametrize("push", [_push_scalar, _push_vectorized])
    def test_aggregate_only_frames_refuse_packet_access(self, push):
        assembler = FrameAssembler(delta_size=2, lookback=1)
        packets = [make_packet(0.001, 1000), make_packet(0.002, 500), make_packet(0.003, 100)]
        finalized = push(assembler, packets)
        assert finalized
        with pytest.raises(ValueError, match="aggregate columns only"):
            finalized[0].packets


class TestFrameSizeDifferences:
    def test_intra_frame_differences_small_for_clean_call(self, teams_call):
        diffs = intra_frame_size_differences(teams_call.trace)
        assert len(diffs) > 100
        # The vast majority of frames fragment into near-equal packets (Fig. 2).
        assert np.mean(diffs <= 2.0) > 0.9

    def test_inter_frame_differences_usually_larger(self, teams_call):
        inter = inter_frame_size_differences(teams_call.trace)
        assert len(inter) > 100
        assert np.mean(inter >= 2.0) > 0.9

    def test_empty_trace(self):
        from repro.net.trace import PacketTrace

        assert len(intra_frame_size_differences(PacketTrace([]))) == 0
        assert len(inter_frame_size_differences(PacketTrace([]))) == 0
