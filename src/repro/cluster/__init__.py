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

from repro._lazy import lazy_exports

#: Each public name and the module defining it, imported on first access.
_EXPORTS = {
    "FlowShardRouter": "repro.cluster.router",
    "ShardWorker": "repro.cluster.worker",
    "FanInSink": "repro.cluster.fanin",
    "BlockRing": "repro.cluster.shm",
    "ShardedQoEMonitor": "repro.cluster.monitor",
    "flow_sort_key": "repro.cluster.fanin",
    "shm_available": "repro.cluster.shm",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
