"""The per-window IP/UDP feature reference and what is pinned against it.

:class:`~repro.core.features.IPUDPFeatureAccumulator` computes one window's 14
Table-1 features from running counters plus a per-window buffer for the exact
percentile statistics.  It is the reference both feature rows are pinned
against: the rows training computes
(:meth:`~repro.core.estimators.IPUDPMLEstimator.feature_matrix`) and the
engine's many-window kernel (:func:`~repro.core.features.window_features`),
bit for bit on randomized traces.
"""

import numpy as np
import pytest

from repro.core.features import (
    IPUDP_FEATURE_NAMES,
    IPUDPFeatureAccumulator,
    _five_stats,
    _segment_five_stats,
    window_features,
)
from repro.core.estimators import IPUDPMLEstimator
from repro.core.media import MediaClassifier
from repro.core.windows import window_trace
from repro.net.packet import IPv4Header, Packet, UDPHeader
from repro.net.trace import PacketTrace


def make_packet(timestamp, size):
    return Packet(
        timestamp=timestamp,
        ip=IPv4Header(src="1.1.1.1", dst="2.2.2.2"),
        udp=UDPHeader(src_port=1, dst_port=2),
        payload_size=size,
    )


def random_trace(rng, n_packets, duration):
    """Mixed audio/video/keep-alive sizes with bursty random arrivals."""
    timestamps = np.sort(rng.uniform(0.0, duration, size=n_packets))
    # Cluster some arrivals below the microburst threshold.
    timestamps[rng.random(n_packets) < 0.4] *= 0.999
    timestamps = np.sort(timestamps)
    sizes = rng.choice(
        [80, 120, 200, 304, 449, 450, 451, 700, 900, 901, 1100, 1200],
        size=n_packets,
    )
    return PacketTrace([make_packet(float(t), int(s)) for t, s in zip(timestamps, sizes)])


def pushed_features(window, classifier) -> np.ndarray:
    """The reference row: the window's packets pushed one by one."""
    accumulator = IPUDPFeatureAccumulator(window.duration, classifier=classifier)
    for packet in window.packets:
        accumulator.push(packet)
    return accumulator.features()


class TestTrainingRowsMatchTheAccumulator:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_windows_match(self, seed):
        rng = np.random.default_rng(seed)
        trace = random_trace(rng, n_packets=400, duration=8.0)
        classifier = MediaClassifier()
        windows = window_trace(trace, window_s=1.0, start=0.0)
        rows = IPUDPMLEstimator(classifier=classifier).feature_matrix(windows)
        for window, row in zip(windows, rows, strict=True):
            # Bit-identical, not merely close: a last-ulp difference could
            # cross a forest split threshold and flip a prediction.
            np.testing.assert_array_equal(
                row, pushed_features(window, classifier),
                err_msg=f"feature mismatch (names: {IPUDP_FEATURE_NAMES})",
            )

    def test_fractional_window_sizes(self):
        rng = np.random.default_rng(99)
        trace = random_trace(rng, n_packets=300, duration=6.0)
        classifier = MediaClassifier()
        windows = window_trace(trace, window_s=0.5, start=0.0)
        rows = IPUDPMLEstimator(classifier=classifier).feature_matrix(windows)
        for window, row in zip(windows, rows, strict=True):
            np.testing.assert_array_equal(row, pushed_features(window, classifier))

    def test_empty_window_is_all_zeros(self):
        accumulator = IPUDPFeatureAccumulator(1.0)
        np.testing.assert_array_equal(accumulator.features(), np.zeros(14))

    def test_single_video_packet(self):
        accumulator = IPUDPFeatureAccumulator(1.0)
        assert accumulator.push(make_packet(0.25, 1000))
        features = accumulator.features()
        window = window_trace(PacketTrace([make_packet(0.25, 1000)]), 1.0, start=0.0, end=1.0)[0]
        np.testing.assert_allclose(features, IPUDPMLEstimator().feature_matrix([window])[0])
        assert features[IPUDP_FEATURE_NAMES.index("# microbursts")] == 1.0

    def test_non_video_packets_ignored(self):
        accumulator = IPUDPFeatureAccumulator(1.0)
        assert not accumulator.push(make_packet(0.1, 120))   # audio-sized
        assert not accumulator.push(make_packet(0.2, 304))   # keep-alive
        np.testing.assert_array_equal(accumulator.features(), np.zeros(14))

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            IPUDPFeatureAccumulator(0.0)


class TestLiveCounters:
    def test_mid_window_introspection_counters(self):
        """The running counters are the monitor-facing partial-window view and
        must agree with the buffers they summarize at any point mid-window."""
        rng = np.random.default_rng(3)
        trace = random_trace(rng, n_packets=200, duration=2.0)
        classifier = MediaClassifier()
        accumulator = IPUDPFeatureAccumulator(2.0, classifier=classifier)
        video_sizes = []
        for packet in trace:
            counted = accumulator.push(packet)
            assert counted == classifier.is_video(packet)
            if counted:
                video_sizes.append(float(packet.payload_size))
            if video_sizes:
                assert accumulator.n == len(video_sizes)
                assert accumulator.byte_sum == sum(video_sizes)
                assert accumulator.size_min == min(video_sizes)
                assert accumulator.size_max == max(video_sizes)
                assert accumulator.microbursts >= 1


def _segments(rng, n_segments):
    """Ragged float64 runs: payload sizes, tiny gaps, wide magnitudes, runs on
    both sides of NumPy's 8- and 128-element summation blocks, empty runs,
    and the odd NaN / +-inf."""
    runs = []
    for _ in range(n_segments):
        n = int(rng.choice([rng.integers(0, 17), rng.integers(0, 300), rng.integers(120, 140)]))
        kind = rng.integers(0, 4)
        if kind == 0:
            values = rng.integers(50, 1500, n).astype(float)
        elif kind == 1:
            values = rng.exponential(0.004, n)
        elif kind == 2:
            values = rng.random(n) * 10.0 ** rng.integers(-6, 7)
        else:
            values = rng.random(n)
            if n:
                values[rng.integers(0, n)] = rng.choice([np.nan, np.inf, -np.inf, 0.0])
        runs.append(values)
    return runs


def _reduceat_sum(run):
    """The reference sum of one segment: ``np.add.reduceat`` over it alone."""
    return float(np.add.reduceat(run, [0])[0]) if len(run) else 0.0


class TestOnePassKernel:
    """The tick-wide feature pass against the per-window reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_segment_stats_match_numpy(self, seed):
        rng = np.random.default_rng(seed)
        runs = _segments(rng, 40)
        lengths = np.array([len(run) for run in runs], dtype=np.intp)
        stats = _segment_five_stats(np.concatenate(runs), lengths)
        for row, run in zip(stats, runs):
            with np.errstate(all="ignore"):
                expected = np.array(_five_stats(run) + [_reduceat_sum(run)])
            np.testing.assert_array_equal(row, expected)
            assert np.array_equal(np.signbit(row), np.signbit(expected))

    def test_sums_match_every_short_length(self):
        rng = np.random.default_rng(7)
        runs = [rng.random(n) * 1e3 for n in range(0, 260)]
        lengths = np.array([len(run) for run in runs], dtype=np.intp)
        sums = _segment_five_stats(np.concatenate(runs), lengths)[:, 5]
        assert sums.tolist() == [_reduceat_sum(run) for run in runs]

    def test_rows_match_the_accumulator(self):
        rng = np.random.default_rng(5)
        trace = random_trace(rng, n_packets=600, duration=6.0)
        classifier = MediaClassifier()
        windows = window_trace(trace, window_s=1.0, start=0.0)
        video = [[p for p in window.packets if classifier.is_video(p)] for window in windows]
        got = window_features(
            [p.timestamp for packets in video for p in packets],
            [p.payload_size for packets in video for p in packets],
            [len(packets) for packets in video],
            1.0,
        )
        for window, row in zip(windows, got, strict=True):
            np.testing.assert_array_equal(row, pushed_features(window, classifier))

    def test_a_window_does_not_depend_on_its_neighbours(self):
        rng = np.random.default_rng(9)
        classifier = MediaClassifier()
        accumulators, rows = [], []
        for _ in range(30):
            accumulator = IPUDPFeatureAccumulator(1.0, classifier=classifier)
            n = int(rng.integers(0, 200))
            timestamps = np.sort(rng.uniform(0.0, 1.0, n))
            sizes = rng.integers(80, 1300, n)
            for cut in np.split(np.arange(n), np.sort(rng.integers(0, n + 1, 3))):
                accumulator.extend(timestamps[cut], sizes[cut])
            accumulators.append(accumulator)
            video = classifier.video_mask(sizes)
            rows.append((timestamps[video], sizes[video]))

        def resolve(order):
            return window_features(
                np.concatenate([rows[i][0] for i in order]),
                np.concatenate([rows[i][1] for i in order]),
                [len(rows[i][0]) for i in order],
                1.0,
            )

        together = resolve(range(len(rows)))
        for i, accumulator in enumerate(accumulators):
            np.testing.assert_array_equal(accumulator.features(), together[i])
        order = rng.permutation(len(rows))
        np.testing.assert_array_equal(resolve(order), together[order])
        assert window_features([], [], [], 1.0).shape == (0, len(IPUDP_FEATURE_NAMES))

    def test_push_and_extend_fill_the_same_buffers(self):
        rng = np.random.default_rng(2)
        timestamps = np.sort(rng.uniform(0.0, 1.0, 500))
        sizes = rng.integers(80, 1300, 500)
        pushed = IPUDPFeatureAccumulator(1.0)
        for t, s in zip(timestamps, sizes):
            pushed.push(make_packet(float(t), int(s)))
        extended = IPUDPFeatureAccumulator(1.0)
        for lo in range(0, 500, 37):
            extended.extend(timestamps[lo : lo + 37], sizes[lo : lo + 37])
        np.testing.assert_array_equal(pushed.sizes, extended.sizes)
        np.testing.assert_array_equal(pushed.iats, extended.iats)
        np.testing.assert_array_equal(pushed.features(), extended.features())
        assert (pushed.n, pushed.byte_sum, pushed.size_min, pushed.size_max, pushed.microbursts) == (
            extended.n, extended.byte_sum, extended.size_min, extended.size_max, extended.microbursts
        )
        assert pushed.unique_sizes == extended.unique_sizes
