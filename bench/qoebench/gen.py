"""Seeded inputs: many-flow vantage traces as NumPy columns, and a fitted forest.

An input is a pure function of ``(workload sizes, seed)``.  Flows are ~25 fps
fragmented video bursts -- 2-4 packets of one size in 700-1200 B per frame,
~75 packets/s per flow, start phases staggered over one frame interval --
merged in timestamp order as one capture point sees them, and built straight
into a :class:`~repro.net.block.PacketBlock` (no ``Packet`` objects unless a
workload needs them).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.estimators import IPUDPMLEstimator
from repro.core.pipeline import QoEPipeline
from repro.net.block import PacketBlock
from repro.net.flows import FlowKey

__all__ = ["build_block", "fit_pipeline", "input_digest"]

_FRAME_INTERVAL_S = 0.04
_FRAME_JITTER_S = 0.004
_FRAGMENT_SPACING_S = 0.0008
#: Captures do not start on a window boundary.  0.85 s into one, even the
#: shortest trace here (2.6 s) crosses three boundaries with room to spare
#: after the last, so its emit lag is sampled at three block phases, not two.
_CAPTURE_START_S = 0.85
_PACKETS_PER_FLOW_S = 75.0
_SERVER = "192.0.2.10"
_SERVER_PORT = 3478


def build_block(n_flows: int, n_packets: int, seed: int) -> PacketBlock:
    """The first ``n_packets`` packets of ``n_flows`` merged video flows."""
    rng = np.random.default_rng([seed, n_flows, n_packets])
    # Generate ~15 % past the target so the merge never runs out of packets
    # before the cut; a flow's mean load is 3 packets per 40 ms frame.
    duration_s = n_packets / (n_flows * _PACKETS_PER_FLOW_S) * 1.15 + 0.2
    n_frames = int(duration_s / _FRAME_INTERVAL_S * 1.3) + 8
    timestamps, sizes, flow_ids = [], [], []
    for flow_id in range(n_flows):
        gaps = rng.normal(_FRAME_INTERVAL_S, _FRAME_JITTER_S, n_frames)
        phase = _CAPTURE_START_S + rng.uniform(0.0, _FRAME_INTERVAL_S)
        frame_starts = phase + np.concatenate(([0.0], np.cumsum(gaps[:-1])))
        frame_sizes = rng.integers(700, 1200, n_frames)
        fragments = rng.integers(2, 5, n_frames)
        within_frame = np.arange(fragments.sum()) - np.repeat(np.cumsum(fragments) - fragments, fragments)
        timestamps.append(np.repeat(frame_starts, fragments) + within_frame * _FRAGMENT_SPACING_S)
        sizes.append(np.repeat(frame_sizes, fragments))
        flow_ids.append(np.full(fragments.sum(), flow_id, dtype=np.int64))
    ts = np.concatenate(timestamps)
    order = np.argsort(ts, kind="stable")[:n_packets]
    if len(order) < n_packets:
        raise ValueError(f"generated {len(order)} packets, need {n_packets}")
    ts = ts[order]
    sz = np.concatenate(sizes)[order]
    ids = np.concatenate(flow_ids)[order]

    # Side tables in first-seen order, as PacketBlock.from_packets builds them.
    present, first_row = np.unique(ids, return_index=True)
    seen_order = present[np.argsort(first_row, kind="stable")]
    code_of = np.full(n_flows, -1, dtype=np.int64)
    code_of[seen_order] = np.arange(len(seen_order))
    codes = code_of[ids]
    clients = [f"10.{(i >> 16) & 255}.{(i >> 8) & 255}.{i & 255}" for i in (seen_order + 1).tolist()]
    client_ports = 20_000 + seen_order
    flows = tuple(
        FlowKey(src=_SERVER, src_port=_SERVER_PORT, dst=client, dst_port=int(port))
        for client, port in zip(clients, client_ports.tolist())
    )
    n = n_packets
    return PacketBlock(
        timestamps=ts.astype("<f8"),
        sizes=sz.astype("<i8"),
        src_codes=np.zeros(n, dtype="<i4"),
        dst_codes=(codes + 1).astype("<i4"),
        src_ports=np.full(n, _SERVER_PORT, dtype="<i4"),
        dst_ports=client_ports[codes].astype("<i4"),
        protocols=np.full(n, 17, dtype="<i2"),
        ttls=np.full(n, 64, dtype="<i2"),
        total_lengths=(sz + 28).astype("<i4"),
        udp_lengths=(sz + 8).astype("<i4"),
        flow_codes=codes.astype("<i4"),
        addresses=(_SERVER, *clients),
        flows=flows,
    )


def input_digest(block: PacketBlock) -> str:
    """SHA-256 over the input columns and flow table.

    Two commits that print the same digest for a workload ran identical input.
    """
    digest = hashlib.sha256()
    for column in (block.timestamps, block.sizes, block.flow_codes, block.dst_ports):
        digest.update(np.ascontiguousarray(column).tobytes())
    digest.update(repr(block.flows).encode())
    return digest.hexdigest()


def fit_pipeline(seed: int) -> QoEPipeline:
    """A deterministically fitted 8-tree depth-6 forest stack (the repo's test recipe)."""
    pipeline = QoEPipeline.for_vca("teams")
    pipeline.ml = IPUDPMLEstimator.for_profile(pipeline.profile, n_estimators=8, max_depth=6)
    rng = np.random.default_rng([seed, 8, 6])
    n_rows = 80
    features = rng.uniform(0.0, 1500.0, size=(n_rows, len(pipeline.ml.feature_names)))
    pipeline.ml.fit(
        features,
        {
            "frame_rate": rng.uniform(5.0, 30.0, n_rows),
            "bitrate": rng.uniform(100.0, 2000.0, n_rows),
            "frame_jitter": rng.uniform(0.0, 50.0, n_rows),
            "resolution": rng.choice(["low", "medium", "high"], n_rows),
        },
    )
    pipeline._trained = True
    return pipeline
