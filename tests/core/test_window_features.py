"""The raw-row feature kernel the streaming engine resolves closed windows with.

:func:`~repro.core.features.window_features` computes many windows' 14
Table-1 features from their raw video ``(timestamp, size)`` rows in one
pass.  Each row must equal the per-window accumulator bit for bit, whatever
else is resolved with it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.estimators import IPUDPMLEstimator
from repro.core.evaluation import EvaluationDataset
from repro.core.features import (
    IPUDP_FEATURE_NAMES,
    IPUDPFeatureAccumulator,
    _five_stats,
    _segment_five_stats,
    window_features,
)
from repro.core.media import MediaClassifier
from repro.core.pipeline import QoEPipeline
from repro.core.windows import match_windows_to_ground_truth, window_trace
from repro.net.packet import IPv4Header, Packet, UDPHeader
from repro.net.trace import PacketTrace
from repro.webrtc.profiles import get_profile


def random_trace(seed: int, n_packets: int = 600, duration: float = 6.0) -> PacketTrace:
    """Mixed audio/video/keep-alive sizes, some arrivals inside one microburst."""
    rng = np.random.default_rng(seed)
    timestamps = np.sort(rng.uniform(0.0, duration, size=n_packets))
    timestamps[rng.random(n_packets) < 0.4] *= 0.999
    timestamps = np.sort(timestamps)
    sizes = rng.choice([80, 200, 449, 450, 451, 700, 900, 901, 1100, 1200], size=n_packets)
    ip, udp = IPv4Header(src="1.1.1.1", dst="2.2.2.2"), UDPHeader(src_port=1, dst_port=2)
    return PacketTrace(
        [Packet(timestamp=float(t), ip=ip, udp=udp, payload_size=int(s)) for t, s in zip(timestamps, sizes)]
    )


def video_rows(windows, classifier):
    """Each window's video packets as flat raw rows plus per-window lengths."""
    video = [[p for p in w.packets if classifier.is_video(p)] for w in windows]
    timestamps = np.array([p.timestamp for packets in video for p in packets], dtype=np.float64)
    sizes = np.array([p.payload_size for packets in video for p in packets], dtype=np.int64)
    return timestamps, sizes, np.array([len(packets) for packets in video])


def pushed_rows(windows, classifier) -> np.ndarray:
    """The reference: one accumulator per window, pushed packet by packet."""
    rows = []
    for window in windows:
        accumulator = IPUDPFeatureAccumulator(window.duration, classifier=classifier)
        for packet in window.packets:
            accumulator.push(packet)
        rows.append(accumulator.features())
    return np.vstack(rows)


class TestWindowFeatures:
    def test_rows_equal_the_accumulator(self):
        classifier = MediaClassifier()
        shapes = set()
        for seed, window_s in ((1, 1.0), (2, 0.5), (3, 0.01)):
            windows = window_trace(random_trace(seed), window_s=window_s, start=0.0)
            timestamps, sizes, lengths = video_rows(windows, classifier)
            shapes.update(np.minimum(lengths, 2).tolist())
            got = window_features(timestamps, sizes, lengths, window_s)
            np.testing.assert_array_equal(got, pushed_rows(windows, classifier))
        assert shapes == {0, 1, 2}  # empty, one-packet and multi-packet windows

    def test_a_window_does_not_depend_on_its_neighbours(self):
        classifier = MediaClassifier()
        windows = window_trace(random_trace(4, n_packets=2000), window_s=1.0, start=0.0)
        timestamps, sizes, lengths = video_rows(windows, classifier)
        together = window_features(timestamps, sizes, lengths, 1.0)
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            alone = window_features(timestamps[lo:hi], sizes[lo:hi], [hi - lo], 1.0)
            np.testing.assert_array_equal(alone[0], together[i])
        assert window_features([], [], [], 1.0).shape == (0, len(IPUDP_FEATURE_NAMES))


def bit_patterns(rows) -> np.ndarray:
    return np.ascontiguousarray(rows, dtype=np.float64).view(np.uint64)


class TestTrainingRowsAreServingRows:
    """The rows training and the evaluation datasets use are the serving
    kernel's: :meth:`IPUDPMLEstimator.feature_matrix` is one
    :func:`window_features` call over a call's matched windows."""

    @pytest.mark.parametrize("window_s", [1, 2, 5])
    @pytest.mark.parametrize("vca", ["teams", "meet", "webex"])
    def test_matched_window_rows_are_the_accumulator_bits(self, vca, window_s, request):
        call = request.getfixturevalue(f"{vca}_call")
        estimator = IPUDPMLEstimator.for_profile(get_profile(vca))
        matched = match_windows_to_ground_truth(call.trace, call.ground_truth, window_s=window_s)
        windows = [sample.window for sample in matched]
        assert len(windows) >= 2
        rows = estimator.feature_matrix(windows)
        expected = pushed_rows(windows, estimator.media_classifier)
        np.testing.assert_array_equal(bit_patterns(rows), bit_patterns(expected))

    def test_each_window_divides_by_its_own_duration(self, teams_call):
        windows = window_trace(teams_call.trace, 0.5, start=2.0, end=4.0)
        windows += window_trace(teams_call.trace, 2.0, start=4.0, end=10.0)
        estimator = IPUDPMLEstimator()
        rows = estimator.feature_matrix(windows)
        expected = pushed_rows(windows, estimator.media_classifier)
        np.testing.assert_array_equal(bit_patterns(rows), bit_patterns(expected))

    def test_train_and_from_calls_make_one_kernel_call_per_call(self, teams_calls_small, monkeypatch):
        import repro.core.estimators as estimators

        real = estimators.window_features
        passes: list[np.ndarray] = []

        def spy(timestamps, sizes, lengths, window_s):
            passes.append(real(timestamps, sizes, lengths, window_s))
            return passes[-1]

        monkeypatch.setattr(estimators, "window_features", spy)
        n_matched = [
            len(match_windows_to_ground_truth(call.trace, call.ground_truth))
            for call in teams_calls_small
        ]
        QoEPipeline.for_vca("teams").train(teams_calls_small)
        assert [len(rows) for rows in passes] == n_matched
        trained_rows = np.vstack(passes)
        passes.clear()
        dataset = EvaluationDataset.from_calls(teams_calls_small)
        assert [len(rows) for rows in passes] == n_matched
        np.testing.assert_array_equal(bit_patterns(dataset.X_ipudp), bit_patterns(trained_rows))


# -- exact by construction ---------------------------------------------------
#
# A window's mean and stdev are np.add.reduceat sums in the per-window
# reference and in the many-window kernel alike, so a window's 14 features
# are the same bits alone, in any batch and at any offset.  Window lengths
# run to 600 rows: across NumPy's 8- and 128-element summation blocks.

LENGTHS = st.integers(0, 600)
SEEDS = st.integers(0, 2**32 - 1)


def raw_rows(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` arrival-ordered rows: bursty gaps, sizes either side of V_min."""
    rng = np.random.default_rng(seed)
    start = float(rng.choice([0.0, 41.5, 1.7e9]))
    timestamps = start + np.cumsum(rng.exponential(float(rng.choice([0.001, 0.003, 0.01])), n))
    return timestamps, rng.integers(60, 1500, n)


def video(rows, classifier=MediaClassifier()):
    timestamps, sizes = rows
    mask = classifier.video_mask(sizes)
    return timestamps[mask], sizes[mask]


def features_of(windows) -> np.ndarray:
    """One :func:`window_features` pass over windows given as video rows."""
    return window_features(
        np.concatenate([np.empty(0)] + [timestamps for timestamps, _ in windows]),
        np.concatenate([np.empty(0, np.int64)] + [sizes for _, sizes in windows]),
        [len(sizes) for _, sizes in windows],
        1.0,
    )


def assert_same_bits(got, expected) -> None:
    """Equal values with equal sign bits (-0.0 differs from 0.0); NaN equals NaN."""
    got, expected = np.asarray(got, dtype=np.float64), np.asarray(expected, dtype=np.float64)
    np.testing.assert_array_equal(got, expected)
    number = ~np.isnan(expected)
    np.testing.assert_array_equal(np.signbit(got[number]), np.signbit(expected[number]))


class TestExactByConstruction:
    @given(seeds=st.lists(st.tuples(SEEDS, LENGTHS), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_every_window_of_a_batch_is_itself_alone(self, seeds):
        windows = [video(raw_rows(seed, n)) for seed, n in seeds]
        together = features_of(windows)
        for window, row in zip(windows, together):
            assert_same_bits(row, features_of([window])[0])

    @given(
        seed=SEEDS,
        n=LENGTHS,
        before=st.lists(st.tuples(SEEDS, LENGTHS), max_size=4),
        after=st.lists(st.tuples(SEEDS, LENGTHS), max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_window_at_any_offset_is_itself_alone(self, seed, n, before, after):
        window = video(raw_rows(seed, n))
        padded = [video(raw_rows(*pad)) for pad in before] + [window]
        padded += [video(raw_rows(*pad)) for pad in after]
        assert_same_bits(features_of(padded)[len(before)], features_of([window])[0])

    @given(seed=SEEDS, n=LENGTHS)
    @settings(max_examples=40, deadline=None)
    def test_a_window_is_the_pushed_accumulator(self, seed, n):
        timestamps, sizes = raw_rows(seed, n)
        ip, udp = IPv4Header(src="1.1.1.1", dst="2.2.2.2"), UDPHeader(src_port=1, dst_port=2)
        pushed = IPUDPFeatureAccumulator(1.0)
        for t, s in zip(timestamps, sizes):
            pushed.push(Packet(timestamp=float(t), ip=ip, udp=udp, payload_size=int(s)))
        assert_same_bits(features_of([video((timestamps, sizes))])[0], pushed.features())

    @given(seed=SEEDS, n=LENGTHS, cuts=st.lists(st.integers(0, 600), max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_a_window_is_the_accumulator(self, seed, n, cuts):
        timestamps, sizes = raw_rows(seed, n)
        extended = IPUDPFeatureAccumulator(1.0)
        for cut in np.split(np.arange(n), sorted(min(cut, n) for cut in cuts)):
            extended.extend(timestamps[cut], sizes[cut])
        assert_same_bits(features_of([video((timestamps, sizes))])[0], extended.features())

    @given(
        values=arrays(np.float64, LENGTHS, elements=st.floats(width=64)),
        before=st.lists(LENGTHS, max_size=3),
        after=st.lists(LENGTHS, max_size=3),
        seed=SEEDS,
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_stats_at_any_offset_are_the_reference(self, values, before, after, seed):
        """NaN, +-inf and -0.0 included: the six statistics of a segment are
        :func:`_five_stats` and its ``np.add.reduceat`` sum, wherever it sits."""
        rng = np.random.default_rng(seed)
        pads = [rng.normal(0.0, 1e3, n) for n in before + after]
        segments = pads[: len(before)] + [values] + pads[len(before) :]
        lengths = np.array([len(segment) for segment in segments], dtype=np.intp)
        with np.errstate(all="ignore"):
            row = _segment_five_stats(np.concatenate(segments), lengths)[len(before)]
            total = np.add.reduceat(values, [0])[0] if len(values) else 0.0
            assert_same_bits(row, _five_stats(values) + [total])
