"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.frame_assembly import assemble_frames
from repro.core.estimators import IPUDPMLEstimator
from repro.core.features import extract_flow_features
from repro.core.resolution import ResolutionBinner, TEAMS_RESOLUTION_BINS
from repro.core.windows import WindowedTrace
from repro.ml.metrics import mean_absolute_error, summarize_errors
from repro.ml.model_selection import KFold
from repro.ml.tree import DecisionTreeRegressor
from repro.net.packet import IPv4Header, Packet, UDPHeader
from repro.net.trace import PacketTrace
from repro.rtp.header import RTPHeader, sequence_distance


# -- strategies ---------------------------------------------------------------

rtp_headers = st.builds(
    RTPHeader,
    payload_type=st.integers(0, 127),
    sequence_number=st.integers(0, 0xFFFF),
    timestamp=st.integers(0, 0xFFFFFFFF),
    ssrc=st.integers(0, 0xFFFFFFFF),
    marker=st.booleans(),
)


@st.composite
def packet_lists(draw, min_size=1, max_size=60):
    n = draw(st.integers(min_size, max_size))
    packets = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(0.0001, 0.05))
        size = draw(st.integers(60, 1400))
        packets.append(
            Packet(
                timestamp=t,
                ip=IPv4Header(src="10.0.0.2", dst="10.0.0.1"),
                udp=UDPHeader(src_port=1000, dst_port=2000),
                payload_size=size,
            )
        )
    return packets


# -- RTP header codec ----------------------------------------------------------


@given(rtp_headers)
def test_rtp_header_encode_decode_round_trip(header):
    assert RTPHeader.decode(header.encode()) == header


@given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
def test_sequence_distance_antisymmetric(a, b):
    forward = sequence_distance(a, b)
    backward = sequence_distance(b, a)
    if forward not in (-0x8000,) and backward not in (-0x8000,):
        assert forward == -backward
    assert -0x8000 <= forward <= 0x7FFF


# -- frame assembly ------------------------------------------------------------


@given(packet_lists(), st.integers(1, 5), st.floats(0.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_every_packet_assigned_to_exactly_one_frame(packets, lookback, delta):
    frames = assemble_frames(packets, delta_size=delta, lookback=lookback)
    assert sum(f.n_packets for f in frames) == len(packets)
    assert all(f.n_packets > 0 for f in frames)


@given(packet_lists(min_size=2))
@settings(max_examples=40, deadline=None)
def test_zero_threshold_lookback_one_splits_on_every_size_change(packets):
    frames = assemble_frames(packets, delta_size=0.0, lookback=1)
    sizes = [p.payload_size for p in sorted(packets, key=lambda p: p.timestamp)]
    expected = 1 + sum(1 for a, b in zip(sizes, sizes[1:]) if a != b)
    assert len(frames) == expected


@given(packet_lists())
@settings(max_examples=40, deadline=None)
def test_huge_threshold_yields_single_frame(packets):
    frames = assemble_frames(packets, delta_size=10_000.0, lookback=3)
    assert len(frames) == 1


# -- trace and windows ----------------------------------------------------------


@given(packet_lists())
@settings(max_examples=40, deadline=None)
def test_trace_is_always_time_sorted(packets):
    trace = PacketTrace(packets)
    times = trace.timestamps
    assert np.all(np.diff(times) >= 0)


@given(packet_lists(), st.floats(0.05, 2.0))
@settings(max_examples=40, deadline=None)
def test_windowing_partitions_packets(packets, window_s):
    trace = PacketTrace(packets)
    total = 0
    for _, window in trace.iter_windows(window_s, start=0.0, end=trace.end_time + window_s):
        total += len(window)
    assert total == len(packets)


# -- features --------------------------------------------------------------------


@given(packet_lists())
@settings(max_examples=40, deadline=None)
def test_flow_features_finite_and_nonnegative(packets):
    features = extract_flow_features(packets, window_s=1.0)
    assert len(features) == 12
    assert all(np.isfinite(f) for f in features)
    assert features[0] >= 0 and features[1] >= 0


@given(packet_lists())
@settings(max_examples=40, deadline=None)
def test_ipudp_features_shape_and_bounds(packets):
    window = WindowedTrace(start=0.0, duration=1.0, packets=PacketTrace(packets))
    features = IPUDPMLEstimator().feature_matrix([window])[0]
    assert features.shape == (14,)
    assert np.all(np.isfinite(features))
    n_video = sum(1 for p in packets if p.payload_size >= 450 and p.payload_size != 304)
    assert features[list(range(14))[-2]] <= max(1, n_video)  # unique sizes <= video packets
    assert features[-1] <= max(1, n_video)  # microbursts <= video packets


# -- resolution binning -----------------------------------------------------------


@given(st.floats(0.0, 2160.0))
def test_teams_binning_is_total_and_consistent(height):
    binner = ResolutionBinner(TEAMS_RESOLUTION_BINS)
    label = binner.label(height)
    assert label in ("low", "medium", "high")
    if height <= 240:
        assert label == "low"
    elif height <= 480:
        assert label == "medium"
    else:
        assert label == "high"


# -- metrics ----------------------------------------------------------------------


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50))
def test_mae_of_identical_arrays_is_zero(values):
    array = np.array(values)
    assert mean_absolute_error(array, array) == 0.0


@given(
    st.lists(st.floats(0.1, 1e3), min_size=2, max_size=50),
    st.lists(st.floats(0.1, 1e3), min_size=2, max_size=50),
)
def test_error_summary_percentiles_ordered(a, b):
    n = min(len(a), len(b))
    summary = summarize_errors(np.array(a[:n]), np.array(b[:n]))
    assert summary.p10 <= summary.p25 <= summary.median <= summary.p75 <= summary.p90
    assert summary.mae >= 0


# -- ML substrate -------------------------------------------------------------------


@given(st.integers(2, 10), st.integers(12, 60))
def test_kfold_partitions_indices(n_splits, n_samples):
    X = np.zeros((n_samples, 1))
    seen = []
    for train_idx, test_idx in KFold(n_splits=n_splits, random_state=0).split(X):
        assert len(set(train_idx) & set(test_idx)) == 0
        seen.extend(test_idx.tolist())
    assert sorted(seen) == list(range(n_samples))


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_tree_predictions_bounded_by_training_targets(seed):
    generator = np.random.default_rng(seed)
    X = generator.normal(size=(80, 3))
    y = generator.normal(size=80)
    tree = DecisionTreeRegressor(max_depth=5).fit(X, y)
    predictions = tree.predict(generator.normal(size=(40, 3)))
    assert predictions.min() >= y.min() - 1e-9
    assert predictions.max() <= y.max() + 1e-9
