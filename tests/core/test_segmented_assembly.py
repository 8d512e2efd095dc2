"""Cross-flow fuzz for the segmented Algorithm 1 kernel.

``assemble_segments`` runs one block's worth of independent per-flow runs
(each continuing its own assembler's carried lookback tail) through a single
vectorized pass.  Every case here builds blocks of 1-600 flows and checks the
kernel frame for frame -- finalized frames, the row that finalized each, and
the post-block assembler state -- against scalar ``FrameAssembler.push`` run
flow by flow.
"""

from __future__ import annotations

import copy
import random

import numpy as np
import pytest

from repro.core.frame_assembly import FrameAssembler, assemble_segments
from repro.net.block import _BlockRow
from repro.net.packet import RTP_FIXED_HEADER_LEN

#: A small size alphabet: duplicate sizes inside the lookback and exact
#: ``abs diff == delta_size`` ties are common, so "most recent match wins"
#: decides most joins.
TIE_ALPHABET = (1000, 1002, 998, 1000, 950, 948, 700)


def frame_key(frame):
    return (
        frame.frame_index,
        frame.n_packets,
        frame.size_bytes,
        frame.raw_size_bytes,
        frame.start_time,
        frame.end_time,
    )


def state_key(assembler):
    return (
        [(ts, size, frame_key(frame)) for ts, size, frame in assembler._recent],
        [frame_key(frame) for frame in assembler.open_frames],
        assembler._next_index,
    )


def run_length(rng):
    """0-40 rows, most of them short: a vantage block gives each flow 1-3."""
    roll = rng.random()
    if roll < 0.15:
        return 0
    if roll < 0.55:
        return 1
    if roll < 0.8:
        return rng.randint(2, 4)
    return rng.randint(5, 40)


def make_block(rng, clocks, tie_heavy):
    """One block's runs: per flow ``(timestamps, sizes)``, each flow's clock advancing."""
    runs = []
    for f in range(len(clocks)):
        ts, sizes = [], []
        for _ in range(run_length(rng)):
            clocks[f] += rng.random() * 0.01
            ts.append(clocks[f])
            sizes.append(rng.choice(TIE_ALPHABET) if tie_heavy else rng.randrange(100, 1300))
        runs.append((ts, sizes))
    return runs


def kernel_block(assemblers, runs, max_gap_s=None, horizons=None):
    """Run one block through the kernel; returns (run, per-flow finalized (row, key))."""
    lengths = [len(ts) for ts, _ in runs]
    bounds = np.zeros(len(runs) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    sizes = np.array([s for _, run_sizes in runs for s in run_sizes], dtype=np.int64)
    timestamps = np.array([t for run_ts, _ in runs for t in run_ts], dtype=np.float64)
    media = np.maximum(sizes - RTP_FIXED_HEADER_LEN, 0)
    run = assemble_segments(
        assemblers, sizes, media, timestamps, bounds, max_gap_s=max_gap_s, horizons=horizons
    )
    frames = run.frames
    finalized = [[] for _ in runs]
    for g, row in zip(run.fin_groups.tolist(), run.fin_rows.tolist()):
        s = int(run.g_seg[g])
        finalized[s].append((row - int(bounds[s]), frame_key(frames[g])))
    return run, finalized


def scalar_block(assemblers, runs):
    """The oracle: per flow, one scalar push per row."""
    finalized = []
    for assembler, (ts, sizes) in zip(assemblers, runs):
        out = []
        for row, (t, size) in enumerate(zip(ts, sizes)):
            out.extend((row, frame_key(frame)) for frame in assembler.push(_BlockRow(t, size)))
        finalized.append(out)
    return finalized


class TestSegmentedKernel:
    @pytest.mark.parametrize("lookback", [1, 2, 3])
    @pytest.mark.parametrize("n_flows,seed", [(1, 0), (7, 1), (64, 2), (600, 3), (211, 4)])
    def test_blocks_match_scalar_push_per_flow(self, lookback, n_flows, seed):
        rng = random.Random(seed * 97 + lookback)
        vector = [FrameAssembler(delta_size=2, lookback=lookback) for _ in range(n_flows)]
        scalar = [FrameAssembler(delta_size=2, lookback=lookback) for _ in range(n_flows)]
        clocks = [rng.random() for _ in range(n_flows)]
        # Several consecutive blocks, so carried tails (and open frames
        # joined across blocks) are exercised at every run length.
        for _ in range(4):
            runs = make_block(rng, clocks, tie_heavy=rng.random() < 0.7)
            _, got = kernel_block(vector, runs)
            expected = scalar_block(scalar, runs)
            assert got == expected
            assert [state_key(a) for a in vector] == [state_key(a) for a in scalar]
        for a, b in zip(vector, scalar):
            assert [frame_key(f) for f in a.flush()] == [frame_key(f) for f in b.flush()]

    @pytest.mark.parametrize("lookback", [2, 3])
    def test_most_recent_match_wins_across_carried_tails(self, lookback):
        """Exact ``delta_size`` ties and duplicate sizes straddling the block
        boundary: a newcomer within delta of several lookback entries joins
        the most recent one, carried or new."""
        patterns = [
            ([1000], [1002, 1000]),
            ([1000, 500], [1000, 1000]),
            ([1002, 1000], [1001]),
            ([700, 702], [704, 700, 702]),
            ([1000, 998, 1000], [999, 1001]),
        ]
        vector = [FrameAssembler(delta_size=2, lookback=lookback) for _ in patterns]
        scalar = [FrameAssembler(delta_size=2, lookback=lookback) for _ in patterns]
        for block in (0, 1):
            runs = [
                ([0.01 * (block * 10 + i + 1) for i in range(len(p[block]))], list(p[block]))
                for p in patterns
            ]
            _, got = kernel_block(vector, runs)
            assert got == scalar_block(scalar, runs)
            assert [state_key(a) for a in vector] == [state_key(a) for a in scalar]

    def test_empty_block_and_empty_segments_are_no_ops(self):
        rng = random.Random(5)
        assemblers = [FrameAssembler(delta_size=2, lookback=2) for _ in range(5)]
        clocks = [0.0] * 5
        kernel_block(assemblers, make_block(rng, clocks, tie_heavy=True))
        before = [state_key(a) for a in assemblers]
        _, got = kernel_block(assemblers, [([], [])] * 5)
        assert got == [[]] * 5
        assert [state_key(a) for a in assemblers] == before

    def test_only_bailing_segments_commit_nothing(self):
        """With ``max_gap_s``, segments whose frames could go stale bail and
        keep their state; their neighbours commit exactly as scalar pushes,
        and every verdict equals the one-segment call's (segments never see
        each other)."""
        rng = random.Random(11)
        n_flows = 40
        vector = [FrameAssembler(delta_size=2, lookback=2) for _ in range(n_flows)]
        scalar = [FrameAssembler(delta_size=2, lookback=2) for _ in range(n_flows)]
        clocks = [rng.random() for _ in range(n_flows)]
        runs = make_block(rng, clocks, tie_heavy=True)
        kernel_block(vector, runs)
        scalar_block(scalar, runs)
        # Every third flow stalls for 5 s before its next run.
        for f in range(0, n_flows, 3):
            clocks[f] += 5.0
        runs = make_block(rng, clocks, tie_heavy=True)
        horizons = np.array(
            [ts[-1] if ts else clock for (ts, _), clock in zip(runs, clocks)], dtype=np.float64
        )
        before = [state_key(a) for a in vector]
        solo = []
        for f, (ts, sizes) in enumerate(runs):
            alone = copy.deepcopy(vector[f])
            one, _ = kernel_block([alone], [(ts, sizes)], max_gap_s=1.0, horizons=horizons[f : f + 1])
            solo.append(bool(one.bail[0]))
        run, got = kernel_block(vector, runs, max_gap_s=1.0, horizons=horizons)
        bail = run.bail.tolist()
        assert bail == solo
        assert any(bail) and not all(bail)
        expected = scalar_block(scalar, runs)
        for f in range(n_flows):
            if bail[f]:
                assert got[f] == []
                assert state_key(vector[f]) == before[f]
                # A stalled flow with open frames is exactly what bails.
                assert f % 3 == 0
            else:
                assert got[f] == expected[f]
                assert state_key(vector[f]) == state_key(scalar[f])

    def test_a_frame_resuming_after_a_stall_bails(self):
        """A frame whose next packet arrives ``max_gap_s`` after its last one
        sat stale in between -- a sweep could have evicted it -- even though
        its final wait is short."""
        assemblers = [FrameAssembler(delta_size=2, lookback=2) for _ in range(2)]
        runs = [([0.0, 5.0, 5.001], [1000, 1000, 700]), ([0.0, 0.5, 0.501], [1000, 1000, 700])]
        horizons = np.array([5.001, 0.501])
        run, got = kernel_block(assemblers, runs, max_gap_s=1.0, horizons=horizons)
        assert run.bail.tolist() == [True, False]
        assert got[0] == [] and state_key(assemblers[0]) == state_key(FrameAssembler(2, 2))
