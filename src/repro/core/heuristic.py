"""IP/UDP Heuristic QoE estimator (Section 3.2.1).

Pipeline: media classification (size threshold) -> frame assembly
(Algorithm 1) -> per-window QoE metrics:

* frame rate  = number of assembled frames whose end time falls in the window;
* bitrate     = total frame bits received in the window, divided by its length;
* frame jitter = standard deviation of consecutive frame end-time differences.

Resolution is *not* estimated by the heuristic (the paper skips it because
there is no direct per-frame resolution signal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.frame_assembly import AssembledFrame, FrameAssembler
from repro.core.media import MediaClassifier
from repro.core.windows import WindowedTrace
from repro.net.trace import PacketTrace, window_grid
from repro.webrtc.profiles import VCAProfile

__all__ = ["HeuristicEstimate", "IPUDPHeuristic"]


@dataclass(frozen=True, slots=True)
class HeuristicEstimate:
    """Per-window estimates produced by a heuristic method."""

    window_start: float
    frame_rate: float
    bitrate_kbps: float
    frame_jitter_ms: float
    n_frames: int

    def metric(self, name: str) -> float:
        if name == "frame_rate":
            return self.frame_rate
        if name == "bitrate":
            return self.bitrate_kbps
        if name == "frame_jitter":
            return self.frame_jitter_ms
        raise ValueError(f"heuristics do not estimate metric {name!r}")


def estimates_from_frames(
    frames: list[AssembledFrame],
    window_start: float,
    window_s: float,
    window_end: float | None = None,
) -> HeuristicEstimate:
    """Turn a window's assembled frames into the three heuristic QoE metrics.

    ``window_end`` overrides the membership upper bound.  Callers iterating a
    drift-free grid must pass the *next* window's start (``start + (k+1) *
    window_s``) so that with fractional windows a frame ending exactly on a
    boundary is attributed to exactly one window -- ``window_start +
    window_s`` and the next start differ in the last ulp.
    """
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    if window_end is None:
        window_end = window_start + window_s
    # Only the sorted end-time sequence and the size total feed the metrics,
    # so one pass + one scalar sort replaces materializing and sorting the
    # member frames (this sits on the streaming engine's per-window hot path).
    end_times: list[float] = []
    size_total = 0
    for f in frames:
        end_time = f._end_time
        if window_start <= end_time < window_end:
            end_times.append(end_time)
            size_total += f.size_bytes
    end_times.sort()
    n_frames = len(end_times)

    frame_rate = n_frames / window_s
    bitrate_kbps = size_total * 8.0 / 1000.0 / window_s

    if n_frames >= 3:
        ends = np.array(end_times)
        # Inlined np.std(np.diff(ends)): the same ufunc calls in the same
        # order (pairwise add.reduce, subtract, in-place square, sqrt), so
        # the result is bit-identical -- minus the dispatch wrappers, which
        # dominate at this array size on the per-window hot path.
        d = ends[1:] - ends[:-1]
        nd = d.shape[0]
        x = d - np.add.reduce(d) / nd
        x *= x
        jitter_ms = math.sqrt(np.add.reduce(x) / nd) * 1000.0
    else:
        jitter_ms = 0.0

    return HeuristicEstimate(
        window_start=window_start,
        frame_rate=frame_rate,
        bitrate_kbps=bitrate_kbps,
        frame_jitter_ms=jitter_ms,
        n_frames=n_frames,
    )


class IPUDPHeuristic:
    """The paper's IP/UDP-only heuristic estimator."""

    def __init__(
        self,
        delta_size: float = 2.0,
        lookback: int = 2,
        classifier: MediaClassifier | None = None,
    ) -> None:
        self.assembler = FrameAssembler(delta_size=delta_size, lookback=lookback)
        self.classifier = classifier if classifier is not None else MediaClassifier()

    @classmethod
    def for_profile(cls, profile: VCAProfile) -> "IPUDPHeuristic":
        """Heuristic configured with the paper's per-VCA parameters (Section 4.3)."""
        return cls(
            delta_size=profile.heuristic_size_threshold,
            lookback=profile.heuristic_lookback,
            classifier=MediaClassifier(video_size_threshold=profile.video_size_threshold),
        )

    def assemble(self, trace: PacketTrace) -> list[AssembledFrame]:
        """Classify video packets (blind to RTP) and assemble them into frames."""
        video = self.classifier.video_packets(trace.without_rtp())
        return self.assembler.assemble_trace(video)

    def estimate_window(self, window: WindowedTrace) -> HeuristicEstimate:
        """Estimate QoE for a single isolated window."""
        frames = self.assemble(window.packets)
        return estimates_from_frames(frames, window.start, window.duration)

    def estimate_trace(self, trace: PacketTrace, window_s: float = 1.0, start: float = 0.0, end: float | None = None) -> list[HeuristicEstimate]:
        """Per-window estimates across a whole trace.

        Frame assembly runs over the full trace (so frames spanning a window
        boundary are not split artificially), then frames are attributed to
        windows by their end time, as in the paper.
        """
        if end is None:
            end = trace.end_time
        frames = self.assemble(trace)
        return [
            estimates_from_frames(frames, t, window_s, window_end=next_t)
            for _, t, next_t in window_grid(start, window_s, end)
        ]
