"""Ground-truth QoE statistics (the ``webrtc-internals`` substitute).

Chrome's ``webrtc-internals`` page reports receiver-side statistics once per
second; the paper uses four of them as ground truth: frames received per
second, video bytes received per second (bitrate), frame height (resolution)
and the inter-frame jitter of decoded frames.  :class:`GroundTruthLog` holds
the same per-second rows for a simulated call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PerSecondStats", "GroundTruthLog"]


@dataclass(frozen=True)
class PerSecondStats:
    """One per-second row of the ground-truth log."""

    second: int
    frames_received: float
    bitrate_kbps: float
    frame_jitter_ms: float
    frame_height: int

    def __post_init__(self) -> None:
        if self.second < 0:
            raise ValueError("second must be non-negative")
        if self.frames_received < 0:
            raise ValueError("frames_received must be non-negative")
        if self.bitrate_kbps < 0:
            raise ValueError("bitrate_kbps must be non-negative")
        if self.frame_jitter_ms < 0:
            raise ValueError("frame_jitter_ms must be non-negative")


@dataclass
class GroundTruthLog:
    """Per-second ground-truth QoE for one call."""

    vca: str
    call_id: str
    start_time: float = 0.0
    rows: list[PerSecondStats] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def append(self, row: PerSecondStats) -> None:
        if self.rows and row.second <= self.rows[-1].second:
            raise ValueError(
                f"per-second rows must be appended in order; got second {row.second} "
                f"after {self.rows[-1].second}"
            )
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    @property
    def duration(self) -> int:
        return len(self.rows)

    @property
    def seconds(self) -> np.ndarray:
        return np.array([row.second for row in self.rows], dtype=int)

    @property
    def frame_rates(self) -> np.ndarray:
        return np.array([row.frames_received for row in self.rows], dtype=float)

    @property
    def bitrates_kbps(self) -> np.ndarray:
        return np.array([row.bitrate_kbps for row in self.rows], dtype=float)

    @property
    def frame_jitters_ms(self) -> np.ndarray:
        return np.array([row.frame_jitter_ms for row in self.rows], dtype=float)

    @property
    def frame_heights(self) -> np.ndarray:
        return np.array([row.frame_height for row in self.rows], dtype=int)

    def metric(self, name: str) -> np.ndarray:
        """Ground-truth series by metric name ("frame_rate", "bitrate",
        "frame_jitter", "resolution")."""
        if name == "frame_rate":
            return self.frame_rates
        if name == "bitrate":
            return self.bitrates_kbps
        if name == "frame_jitter":
            return self.frame_jitters_ms
        if name == "resolution":
            return self.frame_heights.astype(float)
        raise ValueError(f"unknown metric: {name!r}")

    def aggregate(self, window: int) -> "GroundTruthLog":
        """Re-aggregate the per-second log over ``window``-second windows.

        Frame rate and bitrate become per-second averages over the window,
        frame jitter the mean of the per-second jitters, and resolution the
        most frequent height -- this is how Figure 12 varies the prediction
        window size.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        if window == 1:
            return self
        aggregated = GroundTruthLog(
            vca=self.vca, call_id=self.call_id, start_time=self.start_time, metadata=dict(self.metadata)
        )
        for start in range(0, len(self.rows) - window + 1, window):
            chunk = self.rows[start : start + window]
            heights = [row.frame_height for row in chunk]
            values, counts = np.unique(heights, return_counts=True)
            aggregated.append(
                PerSecondStats(
                    second=chunk[0].second // window,
                    frames_received=float(np.mean([row.frames_received for row in chunk])),
                    bitrate_kbps=float(np.mean([row.bitrate_kbps for row in chunk])),
                    frame_jitter_ms=float(np.mean([row.frame_jitter_ms for row in chunk])),
                    frame_height=int(values[np.argmax(counts)]),
                )
            )
        return aggregated
