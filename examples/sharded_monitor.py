"""Scale-out workflow: shard a many-flow capture across N worker processes.

``streaming_monitor.py`` shows one engine handling a handful of concurrent
sessions.  A vantage point in front of thousands of households needs more
than one core, and the per-flow streams are independent by design -- so the
cluster layer simply partitions flows across worker processes:

* a :class:`repro.FlowShardRouter` hash-routes packets by canonical 5-tuple,
  so every packet of a call lands on the same worker;
* each worker rebuilds the pipeline from the ``QoEPipeline.save`` payload
  (the same file a deployment site would load) and runs its own streaming
  engine, batching ML inference across flows whose windows close in the
  same tick;
* a :class:`repro.FanInSink` merges the per-shard estimate streams back
  into one deterministically-ordered stream, feeding ordinary sinks that
  never learn the run was sharded.

The output is estimate-for-estimate identical to the single-process
``QoEMonitor`` -- swap ``ShardedQoEMonitor(n_workers=...)`` in and nothing
downstream changes.  Where the platform supports it, block payloads ride
zero-copy shared-memory rings (``transport="shm"``); the pickling queue
transport is the portable fallback with identical output.

The trace is handed over the way a live tap would -- paced, four times
faster than real time -- and the script's own sink stamps every estimate
with the stream time at which it arrived, so the last lines show how late
(in stream seconds) a one-second window's answer reaches the operator.

Run with:  python examples/sharded_monitor.py [n_workers]
"""

from __future__ import annotations

import sys
import time
from math import ceil

import numpy as np

from repro import QoEPipeline, ShardedQoEMonitor, SummarySink
from repro.cluster import shm_available
from repro.net.packet import IPv4Header, Packet, UDPHeader


def synthetic_vantage_trace(n_flows: int = 12, duration_s: float = 20.0) -> list[Packet]:
    """Interleaved VCA-like downlinks for ``n_flows`` concurrent households.

    Each flow sends ~25 fps video bursts of 2-4 fragments; a third of the
    flows degrade halfway through (lower rate, smaller frames), which the
    per-flow summaries should surface.
    """
    flows: list[list[Packet]] = []
    for index in range(n_flows):
        rng = np.random.default_rng(1000 + index)
        ip = IPv4Header(src="192.0.2.10", dst=f"10.0.{index // 250}.{index % 250 + 1}")
        udp = UDPHeader(src_port=3478, dst_port=50000 + index)
        degraded = index % 3 == 0
        packets: list[Packet] = []
        t = float(rng.uniform(0.0, 0.05))
        while t < duration_s:
            slow = degraded and t > duration_s / 2
            size = int(rng.integers(300, 520)) if slow else int(rng.integers(700, 1200))
            for i in range(int(rng.integers(2, 5))):
                packets.append(Packet(timestamp=t + i * 0.0008, ip=ip, udp=udp, payload_size=size))
            t += float(rng.normal(0.09 if slow else 0.04, 0.004))
        flows.append(packets)
    return sorted((p for flow in flows for p in flow), key=lambda p: p.timestamp)


class LiveTap:
    """Hands ``packets`` over at ``speed`` x real time and keeps the stream clock.

    ``now`` is the newest timestamp handed out so far: stream time as the
    monitor sees it.
    """

    def __init__(self, packets: list[Packet], speed: float = 4.0) -> None:
        self.packets = packets
        self.speed = speed
        self.now = packets[0].timestamp

    def __iter__(self):
        first = self.packets[0].timestamp
        started = time.perf_counter()
        for packet in self.packets:
            wait = started + (packet.timestamp - first) / self.speed - time.perf_counter()
            if wait > 0.002:
                time.sleep(wait)
            self.now = packet.timestamp
            yield packet


class EmitLagSink:
    """Per estimate: stream time on arrival minus the end of its window."""

    def __init__(self, tap: LiveTap, window_s: float) -> None:
        self.tap = tap
        self.window_s = window_s
        self.lags: list[float] = []

    def emit(self, item) -> None:
        lag = self.tap.now - (item.estimate.window_start + self.window_s)
        # Windows still open when the capture ended were closed by the final
        # flush, not by the stream moving past them: they have no lag.
        if lag >= 0.0:
            self.lags.append(lag)

    def close(self) -> None:
        pass

    def percentile(self, share: float) -> float:
        ordered = sorted(self.lags)
        return ordered[max(0, ceil(share * len(ordered)) - 1)]


def main() -> None:
    n_workers = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    packets = synthetic_vantage_trace()
    pipeline = QoEPipeline.for_vca("teams")  # heuristic mode; train + save for ML

    transport = "shm" if shm_available() else "block"
    tap = LiveTap(packets)
    summary = SummarySink(degraded_fps_threshold=18.0)
    emit_lag = EmitLagSink(tap, pipeline.config.window_s)
    monitor = ShardedQoEMonitor(
        pipeline,
        source=tap,
        sinks=[summary, emit_lag],
        n_workers=n_workers,
        transport=transport,
    )
    print(
        f"Sharding {len(packets)} packets across {n_workers} workers "
        f"(transport={transport!r}) ...\n"
    )
    report = monitor.run()

    print(f"Per-shard load (router = CRC-32 of canonical 5-tuple, {n_workers} shards):")
    for shard_id, stats in enumerate(monitor.shard_stats):
        print(
            f"  shard {shard_id}: {stats.get('n_flows', 0):3d} flows  "
            f"{stats.get('n_packets', 0):6d} packets  "
            f"{stats.get('n_packets', 0) / max(stats.get('ticks', 0), 1):5.0f} rows/tick"
        )

    print("\nMerged per-flow summary (deterministic fan-in order):")
    for flow, stats in sorted(summary.summary().items(), key=lambda kv: kv[0].dst_port):
        flag = "  <-- degraded" if stats.degraded_fraction > 0.2 else ""
        print(
            f"  {flow.dst:<11} :{flow.dst_port}  windows={stats.windows:3d}  "
            f"mean_fps={stats.mean_frame_rate:5.1f}  "
            f"degraded={stats.degraded_fraction:5.1%}{flag}"
        )

    print(
        f"\nProcessed {report.packets_consumed} packets / {report.flows_seen} flows "
        f"in {report.wall_time_s:.2f}s ({report.packets_per_s:,.0f} packets/s); "
        f"{report.n_estimates} estimates."
    )
    print(
        f"Emit lag over {len(emit_lag.lags)} complete windows (stream time, arrival at "
        f"the sink minus window end): p50 {emit_lag.percentile(0.50):.2f}s  "
        f"p99 {emit_lag.percentile(0.99):.2f}s."
    )
    print(
        "Every estimate is identical to a single-process QoEMonitor run -- "
        "only the wall-clock changes with n_workers."
    )


if __name__ == "__main__":
    main()
