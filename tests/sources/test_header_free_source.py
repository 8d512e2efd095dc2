"""The monitor reads no application header: RTP in a capture changes nothing.

Every WebRTC capture carries RTP headers in clear (SRTP encrypts the
payload, not the header).  The IP/UDP estimators never read them, so
``PcapSource`` never decodes them and the router never ships them: the same
packets written with and without a 12-byte RTP header give identical rows
through every monitor path, and the sharded monitor's forward rings carry
every sub-block of the RTP capture (no pickled-queue fallback).
"""

from __future__ import annotations

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from repro import CollectorSink, QoEMonitor, QoEPipeline, ShardedQoEMonitor
from repro.cluster.fanin import flow_sort_key
from repro.cluster.shm import shm_available
from repro.net.pcap import write_pcap
from repro.net.trace import PacketTrace
from repro.rtp.header import RTPHeader
from repro.sources import PcapSource

_spec = importlib.util.spec_from_file_location(
    "_cluster_conftest", Path(__file__).resolve().parents[1] / "cluster" / "conftest.py"
)
_cluster_conftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_cluster_conftest)


@pytest.fixture(scope="module")
def captures(tmp_path_factory):
    """``(plain, rtp)`` pcaps of the same four flows; ``rtp`` has a header on every packet."""
    packets = _cluster_conftest.interleave(
        *(
            _cluster_conftest.synthetic_flow(seed, f"10.0.0.{seed + 1}", 50000 + seed)
            for seed in range(4)
        )
    )
    directory = tmp_path_factory.mktemp("captures")
    plain, rtp = directory / "plain.pcap", directory / "rtp.pcap"
    write_pcap(plain, packets)
    write_pcap(
        rtp,
        [
            replace(
                packet,
                rtp=RTPHeader(
                    payload_type=102,
                    sequence_number=i % 65536,
                    timestamp=i * 3000,
                    ssrc=0x1000 + packet.udp.dst_port,
                    marker=i % 4 == 0,
                ),
            )
            for i, packet in enumerate(packets)
        ],
    )
    return plain, rtp


def rows(items):
    return [(item.flow, item.estimate) for item in items]


def monitored(path, **kwargs):
    sink = CollectorSink()
    QoEMonitor(QoEPipeline.for_vca("teams"), PcapSource(path), sinks=sink, **kwargs).run()
    return rows(sink.items)


@pytest.mark.parametrize("block_size", [None, 1024], ids=["per-packet", "block"])
def test_rtp_headers_change_no_estimate(captures, block_size):
    plain, rtp = captures
    expected = monitored(plain, block_size=block_size)
    assert expected
    assert monitored(rtp, block_size=block_size) == expected


@pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable on this platform"
)
def test_sharded_shm_monitor_ships_an_rtp_capture_through_its_rings(captures):
    plain, rtp = captures
    single = sorted(
        monitored(plain), key=lambda row: (row[1].window_start, flow_sort_key(row[0]))
    )
    sink = CollectorSink()
    monitor = ShardedQoEMonitor(
        QoEPipeline.for_vca("teams"), PcapSource(rtp), sinks=sink, n_workers=2, transport="shm"
    )
    report = monitor.run()
    assert rows(sink.items) == single
    forward = report.transport["forward"]
    assert forward["slots_written"] >= 1
    assert forward["queue_fallbacks"] == 0


@pytest.fixture()
def decode_calls(monkeypatch):
    """Counts every ``RTPHeader.decode`` call made while the test runs."""
    calls: list[bytes] = []
    real = RTPHeader.decode

    def spy(cls, data):
        calls.append(bytes(data))
        return real(data)

    monkeypatch.setattr(RTPHeader, "decode", classmethod(spy))
    return calls


def test_pcap_source_constructs_no_rtp_header(captures, decode_calls):
    _, rtp = captures
    blocks = list(PcapSource(rtp).blocks(256))
    assert sum(len(block) for block in blocks) > 0
    assert all(block.rtp is None for block in blocks)
    packets = list(PcapSource(rtp))
    assert packets and all(packet.rtp is None for packet in packets)
    assert decode_calls == []
    # The evaluation path still parses them -- and the spy sees it.
    assert all(packet.rtp is not None for packet in PacketTrace.from_pcap(rtp))
    assert len(decode_calls) == len(packets)
