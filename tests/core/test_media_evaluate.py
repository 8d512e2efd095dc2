"""Table 2's confusion counts: :meth:`MediaClassifier.evaluate` cell by cell."""

from repro.core.media import MediaClassifier
from repro.net.packet import IPv4Header, MediaType, Packet, UDPHeader
from repro.net.trace import PacketTrace


def make_packet(timestamp, size, media):
    return Packet(
        timestamp=timestamp,
        ip=IPv4Header(src="1.1.1.1", dst="2.2.2.2"),
        udp=UDPHeader(src_port=1, dst_port=2),
        payload_size=size,
        media_type=media,
    )


def test_each_labelled_packet_lands_in_its_own_cell():
    packets = (
        [make_packet(0.00 + i / 100, 1100, MediaType.VIDEO) for i in range(4)]  # video as video
        + [make_packet(0.10 + i / 100, 200, MediaType.VIDEO) for i in range(3)]  # video as non-video
        + [make_packet(0.20 + i / 100, 900, MediaType.VIDEO_RTX) for i in range(2)]  # rtx as video
        + [make_packet(0.30, 304, MediaType.VIDEO_RTX)]  # keep-alive: non-video as non-video
        + [make_packet(0.40 + i / 100, 120, MediaType.AUDIO) for i in range(5)]  # audio as non-video
        + [make_packet(0.50, 1200, None)]  # no ground truth: skipped
    )
    report = MediaClassifier().evaluate(PacketTrace(packets))
    assert (
        report.video_as_video,
        report.video_as_nonvideo,
        report.nonvideo_as_video,
        report.nonvideo_as_nonvideo,
    ) == (4, 3, 2, 6)
