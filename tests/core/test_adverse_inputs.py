"""Adverse-input corpus: the block path stays equal to ``push`` off the happy path.

Every other equivalence pin replays clean traces: sorted, every flow alive
for the whole capture, every packet video-sized.  This corpus feeds the
engine the inputs a vantage point actually sees -- reordering within and
far beyond the reorder buffer, duplicated rows, calls that start late, end
early or stall, payloads of 0 bytes and 60 kB, epoch timestamps, non-video
bystander 5-tuples, and per-flow-sorted captures concatenated so time runs
backwards at every flow boundary.

Two properties per seeded scenario:

* **path equivalence** -- ``push_block`` at chunk 1 / 7 / 1024 emits
  exactly what per-packet ``push`` emits: same (flow, window) rows,
  bit-identical values (NaN compared as NaN), same order; heuristic and
  trained;
* **bounded state** -- after every block, the reorder buffers hold at most
  ``reorder_depth`` packets per flow and at most one window per flow is
  open, however hostile the input.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import QoEPipeline
from repro.core.streaming import StreamingQoEPipeline
from repro.net.block import blocks_from_packets
from repro.net.packet import IPv4Header, Packet, UDPHeader

# The synthetic-flow / trained-pipeline helpers live in the cluster suite's
# conftest; load it under a private name (plain ``import conftest`` would
# collide with the root tests/conftest.py).
_spec = importlib.util.spec_from_file_location(
    "_cluster_conftest_adverse", Path(__file__).resolve().parents[1] / "cluster" / "conftest.py"
)
_cluster_conftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_cluster_conftest)
interleave = _cluster_conftest.interleave
make_trained_pipeline = _cluster_conftest.make_trained_pipeline
synthetic_flow = _cluster_conftest.synthetic_flow

DURATION_S = 6.0


def calls() -> list[list[Packet]]:
    """Three concurrent synthetic calls (distinct 5-tuples), one list each."""
    return [
        synthetic_flow(seed, f"10.0.0.{seed + 1}", 50000 + seed, duration_s=DURATION_S)
        for seed in range(3)
    ]


def displaced(packets: list[Packet], rng: np.random.Generator, share: float, by: int) -> list[Packet]:
    """Move a ``share`` of the packets ``1..by`` positions later in arrival order.

    The moved packets sit on a stride of ``by + 1``, so no two moves overlap
    and no packet ends up more than ``by`` positions from where it arrived.
    """
    out = list(packets)
    slots = len(out) // (by + 1) - 1
    for slot in sorted(rng.choice(slots, size=int(share * slots), replace=False)):
        i = int(slot) * (by + 1)
        out.insert(i + int(rng.integers(1, by + 1)), out.pop(i))
    return out


def reorder_within_depth(rng):
    return displaced(interleave(*calls()), rng, share=0.4, by=2)


def reorder_beyond_depth(rng):
    return displaced(interleave(*calls()), rng, share=0.3, by=60)


def duplicated_rows(rng):
    packets = interleave(*calls())
    dup = set(rng.choice(len(packets), size=len(packets) // 10, replace=False).tolist())
    return [copy for i, packet in enumerate(packets) for copy in ((packet,) * (2 if i in dup else 1))]


def late_starting_call(rng):
    late = synthetic_flow(9, "10.0.0.9", 50009, duration_s=2.0, start_s=3.5)
    return interleave(*calls(), late)


def early_ending_call(rng):
    short = synthetic_flow(9, "10.0.0.9", 50009, duration_s=1.5)
    return interleave(*calls(), short)


def stalled_call(rng):
    flow = synthetic_flow(9, "10.0.0.9", 50009, duration_s=DURATION_S)
    resumed = [p for p in flow if not 1.5 <= p.timestamp < 4.5]  # 3 s of silence
    return interleave(*calls(), resumed)


def payload_extremes(rng):
    packets = interleave(*calls())
    sizes = rng.choice([0, 60_000], size=len(packets))
    hit = rng.random(len(packets)) < 0.1
    return [
        replace(packet, payload_size=int(size)) if flag else packet
        for packet, size, flag in zip(packets, sizes, hit)
    ]


def epoch_offset_timestamps(rng):
    return [replace(p, timestamp=p.timestamp + 1.7e9) for p in interleave(*calls())]


def non_video_bystanders(rng):
    bystanders = []
    for i in range(40):
        ip = IPv4Header(src=f"198.51.100.{i + 1}", dst="10.0.0.200")
        udp = UDPHeader(src_port=40000 + i, dst_port=3478 if i % 2 else 53)
        t = float(rng.uniform(0.0, DURATION_S))
        for _ in range(int(rng.integers(1, 12))):
            size = int(rng.integers(20, 160))
            bystanders.append(Packet(timestamp=t, ip=ip, udp=udp, payload_size=size))
            t += float(rng.exponential(0.4))
    return interleave(*calls(), bystanders)


def per_flow_sorted_concatenation(rng):
    return [packet for flow in calls() for packet in flow]


SCENARIOS = {
    fn.__name__: fn
    for fn in (
        reorder_within_depth,
        reorder_beyond_depth,
        duplicated_rows,
        late_starting_call,
        early_ending_call,
        stalled_call,
        payload_extremes,
        epoch_offset_timestamps,
        non_video_bystanders,
        per_flow_sorted_concatenation,
    )
}


@pytest.fixture(scope="module")
def pipelines():
    return {"heuristic": QoEPipeline.for_vca("teams"), "trained": make_trained_pipeline()}


@pytest.fixture(scope="module")
def corpus():
    return {
        name: build(np.random.default_rng(seed))
        for seed, (name, build) in enumerate(SCENARIOS.items())
    }


def nan_safe(items) -> list[tuple]:
    """Emission rows with NaN mapped to a sentinel, so NaN == NaN compares."""

    def value(x):
        return "nan" if isinstance(x, float) and math.isnan(x) else x

    return [
        (
            item.flow,
            value(item.estimate.window_start),
            value(item.estimate.frame_rate),
            value(item.estimate.bitrate_kbps),
            value(item.estimate.frame_jitter_ms),
            item.estimate.resolution,
            item.estimate.source,
        )
        for item in items
    ]


def per_packet_run(pipeline, packets):
    engine = StreamingQoEPipeline(pipeline)
    emitted = [item for packet in packets for item in engine.push(packet)]
    return emitted + engine.flush()


def block_run(pipeline, packets, chunk_size, check=None):
    engine = StreamingQoEPipeline(pipeline)
    emitted = []
    for block in blocks_from_packets(packets, chunk_size, keep_packets=False):
        emitted.extend(engine.push_block(block))
        if check is not None:
            check(engine)
    return emitted + engine.flush()


@pytest.mark.parametrize("chunk_size", [1, 7, 1024])
@pytest.mark.parametrize("mode", ["heuristic", "trained"])
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_push_block_equals_push(corpus, pipelines, scenario, mode, chunk_size):
    packets = corpus[scenario]
    pipeline = pipelines[mode]
    expected = nan_safe(per_packet_run(pipeline, packets))
    assert expected, "the scenario must produce estimates"
    assert nan_safe(block_run(pipeline, packets, chunk_size)) == expected


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_state_stays_bounded(corpus, pipelines, scenario):
    def check(engine):
        n_flows = len(engine.flows)
        assert engine.buffered_packets <= engine.reorder_depth * n_flows
        assert engine.open_windows <= n_flows

    for pipeline in pipelines.values():
        block_run(pipeline, corpus[scenario], 7, check=check)
