"""Media classification from IP/UDP headers (Section 3.1).

With no access to the RTP payload type, video packets are separated from
audio/control packets by a size threshold ``V_min``: audio packets are small
(89-385 bytes for OPUS), video packets are large (99% above 564 bytes for
Teams), so any packet of at least ``V_min`` bytes is tagged as video.  RTX
keep-alives -- which carry no video payload -- are additionally filtered by
their fixed size (304 bytes for the evaluated VCAs).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.net.packet import MediaType, Packet
from repro.net.trace import PacketTrace

__all__ = [
    "MediaClassifier",
    "MediaClassificationReport",
    "DEFAULT_VIDEO_SIZE_THRESHOLD",
]

#: Default V_min (bytes).  Chosen from lab traces: above the audio range,
#: below the 1st percentile of video packet sizes.
DEFAULT_VIDEO_SIZE_THRESHOLD = 450
#: Size of RTX keep-alive packets to filter out (Section 3.1).
DEFAULT_KEEPALIVE_SIZE = 304


@dataclass(frozen=True)
class MediaClassificationReport:
    """Confusion counts for video-vs-non-video classification (Table 2).

    Rows are the *actual* class (from the RTP payload type ground truth),
    columns the predicted class.
    """

    video_as_video: int
    video_as_nonvideo: int
    nonvideo_as_video: int
    nonvideo_as_nonvideo: int

    @property
    def total_video(self) -> int:
        return self.video_as_video + self.video_as_nonvideo

    @property
    def total_nonvideo(self) -> int:
        return self.nonvideo_as_video + self.nonvideo_as_nonvideo

    @property
    def video_recall(self) -> float:
        """Fraction of actual video packets classified as video."""
        if self.total_video == 0:
            return 0.0
        return self.video_as_video / self.total_video

    @property
    def nonvideo_recall(self) -> float:
        """Fraction of actual non-video packets classified as non-video."""
        if self.total_nonvideo == 0:
            return 0.0
        return self.nonvideo_as_nonvideo / self.total_nonvideo

    def as_matrix(self) -> np.ndarray:
        """2x2 row-normalised confusion matrix ([nonvideo, video] x [nonvideo, video])."""
        matrix = np.array(
            [
                [self.nonvideo_as_nonvideo, self.nonvideo_as_video],
                [self.video_as_nonvideo, self.video_as_video],
            ],
            dtype=float,
        )
        row_sums = matrix.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(row_sums > 0, matrix / row_sums, 0.0)


class MediaClassifier:
    """Size-threshold video packet identification.

    Parameters
    ----------
    video_size_threshold:
        ``V_min`` in bytes; packets at least this large are tagged video.
    keepalive_size:
        Exact packet size treated as an RTX keep-alive and excluded even
        though it exceeds the threshold.  ``None`` disables the filter.
    """

    def __init__(
        self,
        video_size_threshold: int = DEFAULT_VIDEO_SIZE_THRESHOLD,
        keepalive_size: int | None = DEFAULT_KEEPALIVE_SIZE,
    ) -> None:
        if video_size_threshold <= 0:
            raise ValueError("video_size_threshold must be positive")
        self.video_size_threshold = video_size_threshold
        self.keepalive_size = keepalive_size

    def is_video(self, packet: Packet) -> bool:
        """Predict whether ``packet`` carries video, using only its size."""
        if self.keepalive_size is not None and packet.payload_size == self.keepalive_size:
            return False
        return packet.payload_size >= self.video_size_threshold

    def video_mask(self, sizes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_video` over an array of payload sizes.

        This is the columnar (block) hot path's classifier; it must agree
        with :meth:`is_video` element for element.  Subclasses that override
        :meth:`is_video` with size-based logic must override this too --
        the streaming engine's block path calls only ``video_mask``.
        """
        mask = sizes >= self.video_size_threshold
        if self.keepalive_size is not None:
            mask &= sizes != self.keepalive_size
        return mask

    def video_packets(self, trace: PacketTrace) -> PacketTrace:
        """The sub-trace of packets classified as video."""
        return trace.filter(self.is_video)

    def split(self, trace: PacketTrace) -> tuple[PacketTrace, PacketTrace]:
        """``(video, non_video)`` sub-traces."""
        video = trace.filter(self.is_video)
        non_video = trace.filter(lambda p: not self.is_video(p))
        return video, non_video

    def evaluate(self, trace: PacketTrace) -> MediaClassificationReport:
        """Confusion counts against the ground-truth media annotations.

        Following the paper's Table 2 protocol, "video" ground truth means
        packets whose RTP payload type is the video payload type (actual video
        frames); retransmissions, audio and control packets count as non-video.
        Packets lacking a ground-truth annotation are skipped.
        """
        cells = Counter(
            (packet.media_type is MediaType.VIDEO, self.is_video(packet))
            for packet in trace
            if packet.media_type is not None
        )
        return MediaClassificationReport(
            video_as_video=cells[True, True],
            video_as_nonvideo=cells[True, False],
            nonvideo_as_video=cells[False, True],
            nonvideo_as_nonvideo=cells[False, False],
        )

    @classmethod
    def calibrate(cls, traces: list[PacketTrace], percentile: float = 99.5) -> "MediaClassifier":
        """Pick ``V_min`` from a few labelled lab traces (Section 3.1).

        The threshold is set just above the ``percentile``-th percentile of
        ground-truth audio packet sizes, which keeps essentially all audio
        below the threshold while staying under the video packet sizes.
        """
        audio_sizes: list[int] = []
        for trace in traces:
            for packet in trace:
                if packet.media_type is MediaType.AUDIO:
                    audio_sizes.append(packet.payload_size)
        if not audio_sizes:
            return cls()
        threshold = int(np.percentile(audio_sizes, percentile)) + 32
        return cls(video_size_threshold=threshold)
