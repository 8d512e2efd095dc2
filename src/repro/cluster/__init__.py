"""Sharded multi-worker execution of the QoE monitor.

The scale-out layer on top of the Source -> Engine -> Sink architecture:

* :class:`~repro.cluster.router.FlowShardRouter` -- deterministic
  hash-partitioning of packets onto N shards by canonical 5-tuple; a flow
  keeps the shard the static CRC-32 map gives it for its whole life;
* :class:`~repro.cluster.worker.ShardWorker` -- spawn-safe worker processes,
  each running a :class:`~repro.core.streaming.StreamingQoEPipeline` rebuilt
  from the ``QoEPipeline.save`` payload, with cross-flow tick-batched
  inference;
* :class:`~repro.cluster.fanin.FanInSink` -- watermark-driven ordered merge
  of the per-shard estimate streams into any existing sink;
* :class:`~repro.cluster.shm.BlockRing` -- the zero-copy shared-memory
  block transport between router and workers (``transport="shm"``);
* :class:`~repro.cluster.monitor.ShardedQoEMonitor` -- the facade, same
  ``run() -> MonitorReport`` surface as :class:`~repro.monitor.QoEMonitor`.

Output is estimate-for-estimate identical to the single-process monitor,
in the deterministic fan-in order ``(window_start, flow)``, for any worker
count.
"""

from repro.cluster.fanin import FanInSink, flow_sort_key
from repro.cluster.monitor import ShardedQoEMonitor
from repro.cluster.router import FlowShardRouter
from repro.cluster.shm import BlockRing, shm_available
from repro.cluster.worker import ShardWorker

__all__ = [
    "FlowShardRouter",
    "ShardWorker",
    "FanInSink",
    "BlockRing",
    "ShardedQoEMonitor",
    "flow_sort_key",
    "shm_available",
]
