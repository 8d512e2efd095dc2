"""Unit tests for feature extraction and resolution binning."""

import numpy as np
import pytest

from repro.core.features import (
    FLOW_FEATURE_NAMES,
    IPUDP_FEATURE_NAMES,
    RTP_FEATURE_NAMES,
    extract_flow_features,
    extract_rtp_features,
)
from repro.core.estimators import IPUDPMLEstimator
from repro.core.resolution import ResolutionBinner, TEAMS_RESOLUTION_BINS, binner_for_vca
from repro.core.windows import WindowedTrace, window_trace
from repro.rtp.payload_types import LAB_PAYLOAD_TYPES
from tests.core.test_heuristics import build_synthetic_trace, make_video_packet
from repro.net.trace import PacketTrace


class TestFeatureNames:
    def test_paper_feature_counts(self):
        assert len(FLOW_FEATURE_NAMES) == 12
        assert len(IPUDP_FEATURE_NAMES) == 14  # Table 1: 12 flow stats + 2 semantics
        assert "# unique sizes" in IPUDP_FEATURE_NAMES
        assert "# microbursts" in IPUDP_FEATURE_NAMES
        assert "# unique RTPvid TS" in RTP_FEATURE_NAMES
        assert "RTP lag [stdev]" in RTP_FEATURE_NAMES


class TestFlowFeatures:
    def test_empty_window_yields_zero_vector(self):
        features = extract_flow_features([], window_s=1.0)
        assert features == [0.0] * 12

    def test_bytes_and_packets_per_second(self):
        trace = build_synthetic_trace(n_frames=10, packets_per_frame=3, frame_size=900)
        features = extract_flow_features(list(trace), window_s=1.0)
        assert features[0] == pytest.approx(sum(p.payload_size for p in trace))
        assert features[1] == pytest.approx(30.0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            extract_flow_features([], window_s=0.0)


def ipudp_features(window: WindowedTrace) -> np.ndarray:
    """The IP/UDP feature row training computes for ``window``."""
    return IPUDPMLEstimator().feature_matrix([window])[0]


class TestIPUDPFeatures:
    def test_vector_length_and_finiteness(self, teams_call):
        windows = window_trace(teams_call.trace, 1.0, start=2.0, end=10.0)
        for window in windows:
            features = ipudp_features(window)
            assert features.shape == (14,)
            assert np.all(np.isfinite(features))

    def test_unique_sizes_tracks_frame_count_on_clean_trace(self):
        trace = build_synthetic_trace(n_frames=20, packets_per_frame=3)
        window = WindowedTrace(start=0.0, duration=1.0, packets=trace)
        features = ipudp_features(window)
        unique_sizes = features[list(IPUDP_FEATURE_NAMES).index("# unique sizes")]
        # The synthetic trace cycles through 7 distinct frame sizes.
        assert unique_sizes == 7.0

    def test_microburst_count_close_to_frame_count(self):
        trace = build_synthetic_trace(n_frames=20, packets_per_frame=3, fps=20.0)
        window = WindowedTrace(start=0.0, duration=1.0, packets=trace)
        features = ipudp_features(window)
        microbursts = features[list(IPUDP_FEATURE_NAMES).index("# microbursts")]
        assert microbursts == pytest.approx(20.0)

    def test_empty_window(self):
        window = WindowedTrace(start=0.0, duration=1.0, packets=PacketTrace([]))
        features = ipudp_features(window)
        assert features.shape == (14,)
        assert np.all(features == 0.0)


class TestRTPFeatures:
    def test_vector_length(self, teams_call):
        payload_types = LAB_PAYLOAD_TYPES["teams"]
        windows = window_trace(teams_call.trace, 1.0, start=2.0, end=10.0)
        for window in windows:
            features = extract_rtp_features(window, payload_types)
            assert features.shape == (len(RTP_FEATURE_NAMES),)
            assert np.all(np.isfinite(features))

    def test_unique_timestamp_features_on_synthetic_trace(self):
        trace = build_synthetic_trace(n_frames=12, packets_per_frame=2)
        window = WindowedTrace(start=0.0, duration=1.0, packets=trace)
        features = extract_rtp_features(window, LAB_PAYLOAD_TYPES["teams"])
        names = list(RTP_FEATURE_NAMES)
        assert features[names.index("# unique RTPvid TS")] == 12.0
        assert features[names.index("Markervid bit sum")] == 12.0
        assert features[names.index("# out-of-order seq")] == 0.0

    def test_out_of_order_detection(self):
        packets = [
            make_video_packet(0.00, 1000, 0, 0, seq=0),
            make_video_packet(0.01, 1000, 0, 0, seq=2),
            make_video_packet(0.02, 1000, 0, 0, seq=1),
        ]
        window = WindowedTrace(start=0.0, duration=1.0, packets=PacketTrace(packets))
        features = extract_rtp_features(window, LAB_PAYLOAD_TYPES["teams"])
        assert features[list(RTP_FEATURE_NAMES).index("# out-of-order seq")] == 2.0


class TestResolutionBinner:
    def test_teams_bins_match_paper(self):
        binner = ResolutionBinner(TEAMS_RESOLUTION_BINS)
        assert binner.label(180) == "low"
        assert binner.label(240) == "low"
        assert binner.label(404) == "medium"
        assert binner.label(480) == "medium"
        assert binner.label(720) == "high"

    def test_per_value_binner(self):
        binner = ResolutionBinner(None)
        assert binner.label(360) == "360"
        assert binner.class_names is None

    def test_vectorised_labels(self):
        binner = ResolutionBinner(TEAMS_RESOLUTION_BINS)
        labels = binner.labels([90, 404, 720])
        assert list(labels) == ["low", "medium", "high"]

    def test_binner_for_vca(self):
        assert binner_for_vca("teams").bins is not None
        assert binner_for_vca("meet").bins is None
        assert binner_for_vca("webex").bins is None

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            ResolutionBinner(None).label(-1)

    def test_unknown_height_zero_maps_to_low(self):
        binner = ResolutionBinner(TEAMS_RESOLUTION_BINS)
        assert binner.label(0) == "low"
