"""Unit tests for the IP/UDP and RTP heuristic estimators."""

import numpy as np
import pytest

from repro.core.heuristic import IPUDPHeuristic, estimates_from_frames
from repro.core.frame_assembly import AssembledFrame
from repro.core.rtp_heuristic import RTPHeuristic
from repro.core.windows import WindowedTrace
from repro.net.packet import IPv4Header, MediaType, Packet, UDPHeader
from repro.net.trace import PacketTrace
from repro.webrtc.profiles import get_profile


def make_video_packet(timestamp, size, frame_id, rtp_ts, seq, marker=False, pt=102):
    from repro.rtp.header import RTPHeader

    return Packet(
        timestamp=timestamp,
        ip=IPv4Header(src="1.1.1.1", dst="2.2.2.2"),
        udp=UDPHeader(src_port=1, dst_port=2),
        payload_size=size,
        rtp=RTPHeader(payload_type=pt, sequence_number=seq, timestamp=rtp_ts, ssrc=3, marker=marker),
        media_type=MediaType.VIDEO,
        frame_id=frame_id,
    )


def build_synthetic_trace(n_frames=30, packets_per_frame=4, frame_size=1000, fps=30.0):
    """A perfectly clean one-second video trace with known frame structure."""
    packets = []
    seq = 0
    for frame in range(n_frames):
        base_time = frame / fps
        size = frame_size + (frame % 7) * 10  # consecutive frames differ in size
        for index in range(packets_per_frame):
            packets.append(
                make_video_packet(
                    timestamp=base_time + index * 0.0005,
                    size=size,
                    frame_id=frame,
                    rtp_ts=frame * 3000,
                    seq=seq,
                    marker=(index == packets_per_frame - 1),
                )
            )
            seq += 1
    return PacketTrace(packets, vca="teams")


class TestEstimatesFromFrames:
    def test_empty_window(self):
        estimate = estimates_from_frames([], window_start=0.0, window_s=1.0)
        assert estimate.frame_rate == 0.0
        assert estimate.bitrate_kbps == 0.0
        assert estimate.frame_jitter_ms == 0.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            estimates_from_frames([], window_start=0.0, window_s=0.0)

    def test_metric_accessor(self):
        estimate = estimates_from_frames([], 0.0, 1.0)
        assert estimate.metric("frame_rate") == 0.0
        with pytest.raises(ValueError):
            estimate.metric("resolution")

    def test_frames_attributed_by_end_time(self):
        frame_a = AssembledFrame(frame_index=0)
        frame_a.add(make_video_packet(0.95, 1000, 0, 0, 0))
        frame_a.add(make_video_packet(1.05, 1000, 0, 0, 1))  # ends at 1.05 -> window 1
        frame_b = AssembledFrame(frame_index=1)
        frame_b.add(make_video_packet(0.5, 900, 1, 3000, 2))
        window0 = estimates_from_frames([frame_a, frame_b], 0.0, 1.0)
        window1 = estimates_from_frames([frame_a, frame_b], 1.0, 1.0)
        assert window0.n_frames == 1
        assert window1.n_frames == 1


class TestIPUDPHeuristic:
    def test_recovers_exact_frame_rate_on_clean_trace(self):
        trace = build_synthetic_trace(n_frames=30)
        heuristic = IPUDPHeuristic(delta_size=2, lookback=2)
        estimates = heuristic.estimate_trace(trace, window_s=1.0, start=0.0, end=1.0)
        assert len(estimates) == 1
        assert estimates[0].frame_rate == pytest.approx(30.0)

    def test_default_end_covers_the_whole_trace(self):
        """With no ``end`` the grid runs to the trace's last packet: one
        estimate per window, none missing at the tail."""
        trace = build_synthetic_trace(n_frames=90)  # three seconds at 30 fps
        estimates = IPUDPHeuristic(delta_size=2, lookback=2).estimate_trace(trace, window_s=1.0)
        assert [e.window_start for e in estimates] == [0.0, 1.0, 2.0]
        assert all(e.frame_rate == pytest.approx(30.0) for e in estimates)

    def test_bitrate_matches_payload_bytes(self):
        trace = build_synthetic_trace(n_frames=10, packets_per_frame=2, frame_size=1000)
        heuristic = IPUDPHeuristic()
        estimate = heuristic.estimate_trace(trace, window_s=1.0, start=0.0, end=1.0)[0]
        expected_bytes = sum(p.media_payload_size for p in trace)
        assert estimate.bitrate_kbps == pytest.approx(expected_bytes * 8.0 / 1000.0)

    def test_blind_to_rtp_headers(self):
        trace = build_synthetic_trace()
        stripped = trace.without_rtp().without_ground_truth()
        heuristic = IPUDPHeuristic()
        with_rtp = heuristic.estimate_trace(trace, 1.0, 0.0, 1.0)[0]
        without_rtp = heuristic.estimate_trace(stripped, 1.0, 0.0, 1.0)[0]
        assert with_rtp.frame_rate == without_rtp.frame_rate

    def test_for_profile_uses_paper_parameters(self):
        heuristic = IPUDPHeuristic.for_profile(get_profile("meet"))
        assert heuristic.assembler.lookback == 3
        assert heuristic.assembler.delta_size == 2.0

    def test_estimate_window_interface(self):
        trace = build_synthetic_trace()
        window = WindowedTrace(start=0.0, duration=1.0, packets=trace)
        estimate = IPUDPHeuristic().estimate_window(window)
        assert estimate.frame_rate > 0

    def test_jitter_nonnegative(self, lossy_teams_call):
        heuristic = IPUDPHeuristic.for_profile(get_profile("teams"))
        estimates = heuristic.estimate_trace(lossy_teams_call.trace, window_s=1.0, start=2.0)
        assert all(e.frame_jitter_ms >= 0 for e in estimates)

    def test_audio_packets_do_not_create_frames(self):
        trace = build_synthetic_trace(n_frames=5)
        audio = [
            Packet(
                timestamp=0.02 * i,
                ip=IPv4Header(src="1.1.1.1", dst="2.2.2.2"),
                udp=UDPHeader(src_port=1, dst_port=2),
                payload_size=150,
                media_type=MediaType.AUDIO,
            )
            for i in range(50)
        ]
        combined = PacketTrace(list(trace) + audio)
        estimate = IPUDPHeuristic().estimate_trace(combined, 1.0, 0.0, 1.0)[0]
        assert estimate.frame_rate == pytest.approx(5.0)


class TestRTPHeuristic:
    def test_exact_frame_count_from_timestamps(self):
        trace = build_synthetic_trace(n_frames=25)
        heuristic = RTPHeuristic(video_payload_type=102)
        estimate = heuristic.estimate_trace(trace, 1.0, 0.0, 1.0)[0]
        assert estimate.frame_rate == pytest.approx(25.0)

    def test_ignores_other_payload_types(self):
        trace = build_synthetic_trace(n_frames=10)
        heuristic = RTPHeuristic(video_payload_type=96)  # wrong payload type
        estimate = heuristic.estimate_trace(trace, 1.0, 0.0, 1.0)[0]
        assert estimate.frame_rate == 0.0

    def test_for_profile_environment_remap(self):
        lab = RTPHeuristic.for_profile(get_profile("teams"), environment="lab")
        real = RTPHeuristic.for_profile(get_profile("teams"), environment="real_world")
        assert lab.video_payload_type == 102
        assert real.video_payload_type == 100

    def test_rtp_heuristic_close_to_ground_truth_on_clean_call(self, teams_call):
        heuristic = RTPHeuristic.for_profile(get_profile("teams"))
        estimates = heuristic.estimate_trace(teams_call.trace, window_s=1.0, start=0.0, end=float(teams_call.duration_s))
        estimated = np.array([e.frame_rate for e in estimates[2:-1]])
        truth = teams_call.ground_truth.frame_rates[2 : len(estimates) - 1]
        mae = np.mean(np.abs(estimated - truth))
        assert mae < 4.0

    def test_more_accurate_than_ipudp_heuristic_under_loss(self, lossy_teams_call):
        profile = get_profile("teams")
        duration = float(lossy_teams_call.duration_s)
        rtp = RTPHeuristic.for_profile(profile).estimate_trace(lossy_teams_call.trace, 1.0, 2.0, duration - 1)
        ipudp = IPUDPHeuristic.for_profile(profile).estimate_trace(lossy_teams_call.trace, 1.0, 2.0, duration - 1)
        truth = lossy_teams_call.ground_truth.frame_rates[2 : 2 + len(rtp)]
        rtp_mae = np.mean(np.abs(np.array([e.frame_rate for e in rtp]) - truth))
        ipudp_mae = np.mean(np.abs(np.array([e.frame_rate for e in ipudp]) - truth))
        assert rtp_mae <= ipudp_mae
