"""The raw-row feature kernel the streaming engine resolves closed windows with.

:func:`~repro.core.features.window_features` computes many windows' 14
Table-1 features from their raw video ``(timestamp, size)`` rows in one
pass.  Each row must equal the batch extractor and the per-window
accumulator bit for bit, whatever else is resolved with it.
"""

import numpy as np

from repro.core.features import (
    IPUDP_FEATURE_NAMES,
    IPUDPFeatureAccumulator,
    extract_ipudp_features,
    window_features,
)
from repro.core.media import MediaClassifier
from repro.core.windows import window_trace
from repro.net.packet import IPv4Header, Packet, UDPHeader
from repro.net.trace import PacketTrace


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


class TestWindowFeatures:
    def test_rows_equal_the_batch_extractor_and_the_accumulator(self):
        classifier = MediaClassifier()
        shapes = set()
        for seed, window_s in ((1, 1.0), (2, 0.5), (3, 0.01)):
            windows = window_trace(random_trace(seed), window_s=window_s, start=0.0)
            timestamps, sizes, lengths = video_rows(windows, classifier)
            shapes.update(np.minimum(lengths, 2).tolist())
            got = window_features(timestamps, sizes, lengths, window_s)
            expected = np.vstack([extract_ipudp_features(w, classifier=classifier) for w in windows])
            np.testing.assert_array_equal(got, expected)
            for window, row in zip(windows, got):
                accumulator = IPUDPFeatureAccumulator(window_s, classifier=classifier)
                for packet in window.packets:
                    accumulator.push(packet)
                np.testing.assert_array_equal(row, accumulator.features())
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
