"""The sharded monitor facade: N engines behind one router and one fan-in.

:class:`ShardedQoEMonitor` has the same surface as
:class:`~repro.monitor.QoEMonitor` -- construct with a pipeline, a source
and sinks, call :meth:`run`, get a :class:`~repro.monitor.MonitorReport` --
but executes as an N-worker deployment:

* the parent consumes the source as columnar
  :class:`~repro.net.block.PacketBlock` batches and splits each through a
  :class:`~repro.cluster.router.FlowShardRouter` (hash of the canonical
  5-tuple) into per-shard sub-blocks;
* each :class:`~repro.cluster.worker.ShardWorker` process runs its own
  :class:`~repro.core.streaming.StreamingQoEPipeline`, rebuilt from the
  ``QoEPipeline.save`` payload, with cross-flow **tick-batched inference**
  (one ``push_block`` and one vectorized forest call per forward message:
  a routed sub-block, or every sub-block that shared a ring slot);
* a :class:`~repro.cluster.fanin.FanInSink` merges the per-shard estimate
  streams back into one watermark-ordered stream feeding the caller's
  ordinary sinks.

**Determinism contract.**  The estimates are exactly those the
single-process monitor produces (same flows, same windows, bit-identical
values -- per-flow streams are independent, and batched inference is
row-independent), delivered in the fan-in order ``(window_start, flow)``.
Output is therefore identical for any worker count, including 1, and
repeatable across runs.

Back-pressure and liveness: per-shard input queues are bounded, the parent
drains worker output whenever it would block on input, and a worker that
dies without reporting raises instead of hanging the run.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import queue as queue_module
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import QoEPipeline
from repro.cluster.fanin import FanInSink
from repro.cluster.rebalance import RebalancePolicy, ShardLoad, summarize_migrations
from repro.cluster.router import FlowShardRouter
from repro.cluster.shm import DEFAULT_SLOT_BYTES, MIN_SLOT_BYTES, BlockRing, shm_available
from repro.cluster.worker import ShardWorker
from repro.monitor import MonitorReport
from repro.obs.config import ObsConfig
from repro.obs.registry import MetricsRegistry, ingest_transport_stats
from repro.net.estwire import EstimateBatch
from repro.sources.base import PacketSource, as_source, iter_blocks

__all__ = ["ShardedQoEMonitor"]

_TRANSPORTS = ("shm", "block")


class _ForwardLink:
    """Parent-side forward link of one shard: routed sub-blocks to its worker.

    Over a ring the link is **self-clocking**: every :meth:`add` offers
    everything pending to the ring *without blocking*, so while the worker
    keeps up a sub-block leaves the parent in the ``add`` that routed it,
    one slot and one ``("shm",)`` token each.  Only while the ring is full
    (back-pressure) do sub-blocks accumulate -- as references, nothing is
    copied -- and the next successful offer flat-encodes the whole batch
    into **one** slot behind length-prefixed segment headers, two semaphore
    ops and a single token no matter how many routed ticks ride in it.
    ``add`` blocks only when the pending batch would overflow a slot.  So a
    saturated worker sees slots as full as they can be, and an idle one is
    never kept waiting for a batch to fill: rows are held exactly as long
    as the ring gives them nowhere to go.  The worker runs everything a slot
    carries as **one** inference tick, so this rule is also what sizes the
    tick: one sub-block while the worker keeps up (nothing is delayed for a
    bigger batch), up to a slot's worth once it is the bottleneck -- which
    is when amortizing the engine's per-flow cost over more rows pays.  The
    estimates do not depend on the grouping (``push_block`` is bit-identical
    at every split; the worker cuts a tick wherever an idle-eviction sweep
    falls due).  Blocks the codec cannot flatten (RTP object columns)
    or that outsize a slot even after row-splitting go to the pickling
    queue -- always behind a flush, so queue messages cannot overtake
    pending sub-blocks and everything still arrives in routed order.  With
    no ring (``transport="block"``) the queue carries every sub-block.
    """

    def __init__(self, monitor: "ShardedQoEMonitor", worker: ShardWorker) -> None:
        self._monitor = monitor
        self._worker = worker
        self._ring = worker.ring
        self._pending: list[tuple[int, object]] = []
        self._pending_cost = 0
        self._queue_fallbacks = 0

    def add(self, block) -> None:
        """Route one sub-block: offer it now, batch it only under back-pressure."""
        ring = self._ring
        if ring is None:
            self._monitor._send(self._worker, ("block", block))
            return
        try:
            size = block.byte_size()
        except ValueError:
            # Not flat-encodable (object columns): the queue still is.
            self._fall_back(block)
            return
        if size > ring.max_segment_bytes:
            if len(block) <= 1:
                # A single row that out-sizes a slot (pathological side
                # tables): the queue handles it, correctness over zero-copy.
                self._fall_back(block)
                return
            mid = len(block) // 2
            self.add(block[:mid].compact())
            self.add(block[mid:].compact())
            return
        cost = ring.segment_cost(size)
        if self._pending and self._pending_cost + cost > ring.slot_bytes:
            self.flush()
        self._pending.append((size, block))
        self._pending_cost += cost
        self._offer(timeout=0)

    def _fall_back(self, block) -> None:
        self.flush()
        self._queue_fallbacks += 1
        self._monitor._send(self._worker, ("block", block))

    def _offer(self, timeout: float) -> bool:
        """Pack everything pending into the next free slot and announce it.

        False -- with the batch still pending, in routed order -- when no
        slot freed within ``timeout`` (``0``: do not wait at all).
        """
        payloads = [(size, block.write_into) for size, block in self._pending]
        if not self._ring.try_push_segments(payloads, timeout=timeout):
            return False
        self._pending = []
        self._pending_cost = 0
        self._monitor._send(self._worker, ("shm",))
        return True

    def flush(self) -> None:
        """Block until every pending sub-block has left in one slot."""
        while self._pending and not self._offer(timeout=0.05):
            self._monitor._pump_blocked_on(self._worker)

    def stats(self) -> dict:
        """Forward-ring transport counters for the shard's stats surface."""
        if self._ring is None:
            return {}
        stats = dict(self._ring.transport_stats())
        stats["queue_fallbacks"] = self._queue_fallbacks
        return stats


class _RebalanceDriver:
    """Parent-side rebalancing loop: observe load, tick the policy, migrate.

    Keeps per-shard, per-canonical-flow packet counts from the routing path
    (so a load signal exists even before the first worker telemetry
    arrives) and a stream-time clock from packet timestamps, so policy
    ticks -- and therefore migrations -- are a deterministic function of
    the trace and the policy, not of scheduler timing.
    """

    def __init__(self, monitor: "ShardedQoEMonitor", policy: RebalancePolicy) -> None:
        self._monitor = monitor
        self._policy = policy
        self._now: float | None = None
        self._interval_start: float | None = None
        self._flow_packets: list[dict] = [{} for _ in range(monitor.n_workers)]
        self._interval_packets = [0] * monitor.n_workers

    def observe_block(self, block) -> None:
        """Account one source block (called before it is partitioned)."""
        if not len(block):
            return
        router = self._monitor.router
        codes, counts = np.unique(block.flow_codes, return_counts=True)
        for code, count in zip(codes.tolist(), counts.tolist()):
            key = block.flows[code]
            shard_id = router.shard_of_key(key)
            canonical = key.bidirectional()[0]
            flow_packets = self._flow_packets[shard_id]
            flow_packets[canonical] = flow_packets.get(canonical, 0) + count
            self._interval_packets[shard_id] += count
        newest = float(block.timestamps.max())
        if self._now is None or newest > self._now:
            self._now = newest
        if self._interval_start is None:
            self._interval_start = newest

    def tick(self) -> None:
        """Run the policy once per elapsed ``interval_s`` of stream time."""
        if self._now is None or self._interval_start is None:
            return
        if self._now - self._interval_start < self._policy.interval_s:
            return
        monitor = self._monitor
        loads = []
        for shard_id in range(monitor.n_workers):
            telemetry = monitor.shard_loads[shard_id] or {}
            loads.append(
                ShardLoad(
                    shard_id=shard_id,
                    live_flows=telemetry.get("live_flows", 0),
                    buffered_packets=telemetry.get("buffered_packets", 0),
                    open_windows=telemetry.get("open_windows", 0),
                    interval_packets=self._interval_packets[shard_id],
                    flow_packets=self._flow_packets[shard_id],
                )
            )
        for migration in self._policy.plan(self._now, loads)[: self._policy.max_migrations]:
            monitor._migrate(migration.flow, migration.dst)
        self._interval_start = self._now
        self._flow_packets = [{} for _ in range(monitor.n_workers)]
        self._interval_packets = [0] * monitor.n_workers


class ShardedQoEMonitor:
    """Run a trained-or-heuristic pipeline as an N-worker sharded deployment.

    Parameters
    ----------
    pipeline:
        The estimator stack; it is serialized via
        :meth:`~repro.core.pipeline.QoEPipeline.to_payload` and rebuilt
        inside every worker.
    source:
        Anything :func:`~repro.sources.base.as_source` understands -- the
        same sources a :class:`~repro.monitor.QoEMonitor` takes, unchanged.
    sinks:
        A sink or sequence of sinks receiving the merged estimate stream.
    config:
        Overrides ``pipeline.config`` for the workers (e.g. enabling
        ``idle_timeout_s``).  Must keep ``demux_flows=True``: sharding *is*
        flow demultiplexing.
    n_workers:
        Shard count.  ``1`` is a valid (and useful) degenerate case: same
        output, one worker process.
    chunk_size:
        Packets per source block.  A routed sub-block is the wire unit and,
        while its worker keeps up, the inference tick (windows closing in
        the same tick share one vectorized forest call).  A worker that
        falls behind runs every sub-block that had to share a ring slot as
        one tick (``transport="shm"``), so under load the tick grows on its
        own and ``chunk_size`` only sets how early an unloaded monitor
        answers.
    transport:
        What carries a routed sub-block to its worker.  Routing is the same
        either way: the source is consumed as columnar
        :class:`~repro.net.block.PacketBlock` batches
        (:func:`~repro.sources.base.iter_blocks`), each split into per-shard
        sub-blocks with one CRC-32 per *unique flow* (memoized), and workers
        run the engine's columnar :meth:`push_block
        <repro.core.streaming.StreamingQoEPipeline.push_block>` path.
        ``"block"`` (default): sub-blocks and estimates are pickled onto the
        queues as raw array buffers -- works wherever ``multiprocessing``
        does.  ``"shm"``: sub-blocks are flat-encoded into a per-shard
        shared-memory :class:`~repro.cluster.shm.BlockRing` (several per
        slot) and read as zero-copy views by the worker, and estimate
        batches (:class:`~repro.net.estwire.EstimateBatch`) come back over a
        reverse ring, so only slot tokens and control messages ride the
        queues.  A block or batch the codec cannot flatten, or that outsizes
        a slot even after splitting, goes over the queue instead, so output
        never depends on the transport: both emit bit-identical estimates in
        identical order (pinned by ``tests/cluster/``).
    queue_depth:
        Bound of each shard's input queue, and -- on the ``"shm"``
        transport -- the slot count of its block rings (the pairing:
        every filled ring slot is announced by one queued token).  This is
        the back-pressure knob: a slow shard can be at most ``queue_depth``
        slots behind the router before sub-blocks start sharing slots, and
        ``queue_depth`` full slots behind before the router blocks.  A
        shard that keeps up is never more than one sub-block behind: the
        forward link holds a routed row only while the ring has no free
        slot for it.
    shm_slot_bytes:
        Payload capacity of one ring slot (``"shm"`` transport only;
        default :data:`~repro.cluster.shm.DEFAULT_SLOT_BYTES`, minimum
        :data:`~repro.cluster.shm.MIN_SLOT_BYTES`).  The router splits
        blocks that encode larger than this, so it bounds shared memory
        (``2 * n_workers * queue_depth * shm_slot_bytes``) and the largest
        inference tick a worker runs (one slot's worth of rows), not what
        can be shipped.
    start_method:
        ``multiprocessing`` start method; the default ``"spawn"`` is the
        portable choice and what the workers are built to be safe under.
    new_flow_slack_s:
        Bound on cross-flow disorder in the source -- how far a brand-new
        flow's first packet may trail the newest packet already seen --
        which every fan-in watermark leaves room for.  ``None`` (default):
        **measured**.  Each worker uses the largest amount by which any
        row it received trailed the newest timestamp that arrived before
        it (stream time only): 0 on a timestamp-sorted source, so a window
        is released as soon as every live flow of every shard has closed
        it, and exactly as much as the stream has shown to be necessary
        otherwise.  A float is a fixed, operator-declared bound used
        verbatim; larger values delay every release by that much.  Either
        way a flow that arrives later than the bound in force (measured:
        later than anything its shard has seen before) degrades only the
        *order* of its late estimates -- they are still delivered exactly
        once.
    rebalance:
        A :class:`~repro.cluster.rebalance.RebalancePolicy` enabling
        **elastic sharding**: at every ``interval_s`` of stream time the
        policy sees per-shard load (worker telemetry + the parent's routing
        counts) and plans up to ``max_migrations`` flow re-homings, each
        executed as a synchronous stop-and-copy cut -- the old shard drains
        the flow into a :class:`~repro.net.flowwire.FlowSnapshot`, the new
        shard restores it push-identically, and the fan-in fences releases
        across the cut so the merged output stays bit-identical to (and in
        the same order as) a run that never migrated.  ``None`` (default)
        preserves the static CRC-32 map with zero overhead beyond one falsy
        branch per routed flow lookup.
    obs:
        An :class:`~repro.obs.config.ObsConfig` enabling the unified
        telemetry plane (PR 8): the parent owns a fleet
        :class:`~repro.obs.registry.MetricsRegistry`, every worker records
        into its own and ships deltas on the messages it already sends
        (``progress``/``est``/``done`` -- no extra queue traffic), and
        :meth:`metrics` / ``MonitorReport.metrics`` expose the merged view
        (:func:`~repro.obs.render.render_prometheus` turns it into a
        scrape).  ``None`` or ``ObsConfig(enabled=False)`` (default) keeps
        the whole plane at one falsy branch per hot-path call; estimates
        are bit-identical either way (pinned by
        ``tests/cluster/test_obs_plane.py``).
    """

    def __init__(
        self,
        pipeline: QoEPipeline,
        source,
        sinks=(),
        config: PipelineConfig | None = None,
        n_workers: int = 2,
        chunk_size: int = 256,
        transport: str = "block",
        start_method: str = "spawn",
        new_flow_slack_s: float | None = None,
        queue_depth: int = 8,
        shm_slot_bytes: int = DEFAULT_SLOT_BYTES,
        rebalance: RebalancePolicy | None = None,
        obs: ObsConfig | None = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
        if transport not in _TRANSPORTS:
            raise ValueError(f"transport must be one of {_TRANSPORTS}, got {transport!r}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth!r}")
        if shm_slot_bytes < MIN_SLOT_BYTES:
            raise ValueError(
                f"shm_slot_bytes must be >= {MIN_SLOT_BYTES}, got {shm_slot_bytes!r}"
            )
        if transport == "shm" and not shm_available():
            raise RuntimeError(
                "transport='shm' requires a working multiprocessing.shared_memory "
                "(unavailable or denied on this platform); use transport='block'"
            )
        self.pipeline = pipeline
        self.source: PacketSource = as_source(source)
        if hasattr(sinks, "emit"):  # a single sink was passed
            sinks = (sinks,)
        self.sinks = tuple(sinks)
        self.config = config if config is not None else pipeline.config
        if not self.config.demux_flows:
            raise ValueError(
                "a sharded monitor requires demux_flows=True (sharding partitions flows); "
                "use QoEMonitor(batch_grid=True) for single-session batch scoring"
            )
        self.router = FlowShardRouter(n_workers)
        self.n_workers = n_workers
        self.chunk_size = chunk_size
        self.transport = transport
        self.start_method = start_method
        self.new_flow_slack_s = new_flow_slack_s
        self.queue_depth = queue_depth
        self.shm_slot_bytes = shm_slot_bytes
        self.rebalance = rebalance
        self.obs = obs
        #: The fleet registry (``None`` when observability is off): the
        #: parent's own spans plus every worker delta, merged.
        self.registry: MetricsRegistry | None = (
            MetricsRegistry(obs) if obs is not None and obs.enabled else None
        )
        #: Per-shard ``{"n_packets", "n_flows", "n_evicted_flows", "ticks",
        #: "sub_blocks", "load"}`` of the completed run (index = shard id).
        #: ``n_packets / ticks`` is the rows an inference tick carried: more
        #: than ``n_packets / sub_blocks`` only where slot grouping engaged.
        #: On the ``"shm"`` transport a ``"transport"`` entry adds
        #: per-direction ring telemetry (occupancy high-water mark, slots
        #: written/reused, segments per slot, queue fallbacks).
        self.shard_stats: list[dict] = []
        #: Latest per-shard load telemetry (index = shard id; ``None`` until
        #: a shard's first watermark-bearing message arrives).  Live during
        #: the run -- this is the mid-run load signal the rebalancer reads.
        self.shard_loads: list[dict | None] = [None] * n_workers
        #: Completed migrations, in execution order: ``{"epoch", "flow",
        #: "src", "dst", "latency_s"}`` per re-homing.
        self.migrations: list[dict] = []
        #: Newest packet timestamp routed to each shard -- the stream clocks
        #: of the lag metrics, advanced only when observability is on.
        self._newest_routed = [-math.inf] * n_workers
        self._fan_in: FanInSink | None = None
        self._ran = False

    # -- construction shortcuts ------------------------------------------------

    @classmethod
    def for_vca(cls, vca: str, source, sinks=(), config: PipelineConfig | None = None, **kwargs) -> "ShardedQoEMonitor":
        """An untrained (heuristic-backed) sharded monitor for ``vca``."""
        return cls(QoEPipeline.for_vca(vca, config=config), source, sinks, **kwargs)

    @classmethod
    def from_model(
        cls,
        path: str | Path,
        source,
        sinks=(),
        config: PipelineConfig | None = None,
        **kwargs,
    ) -> "ShardedQoEMonitor":
        """Deploy a model trained elsewhere across N local workers."""
        return cls(QoEPipeline.load(path), source, sinks=sinks, config=config, **kwargs)

    # -- execution -------------------------------------------------------------

    def run(self) -> MonitorReport:
        """Consume the source to exhaustion across the workers.

        One-shot, like :meth:`QoEMonitor.run <repro.monitor.QoEMonitor.run>`:
        sinks are closed at the end, so construct a new monitor (with fresh
        sinks) for the next capture.
        """
        if self._ran:
            raise RuntimeError(
                "this monitor already ran and closed its sinks; construct a new "
                "ShardedQoEMonitor (with fresh sinks) for the next capture"
            )
        self._ran = True
        started = perf_counter()
        ctx = multiprocessing.get_context(self.start_method)
        out_queue = ctx.Queue()
        payload_json = json.dumps(self.pipeline.to_payload())
        n_workers = self.n_workers
        rings: list[BlockRing] = []
        try:
            if self.transport == "shm":
                # rings[i] carries shard i's blocks, rings[n_workers + i] its
                # estimates.  Created one at a time inside the guard, so a
                # failing create reclaims the rings already made.
                for _ in range(2 * n_workers):
                    rings.append(BlockRing.create(ctx, self.queue_depth, self.shm_slot_bytes))
            forward_rings = rings[:n_workers] or [None] * n_workers
            return_rings = rings[n_workers:] or [None] * n_workers
            workers = [
                ShardWorker(
                    shard_id,
                    payload_json,
                    self.config,
                    ctx,
                    out_queue,
                    queue_depth=self.queue_depth,
                    new_flow_slack_s=self.new_flow_slack_s,
                    ring=forward_rings[shard_id],
                    return_ring=return_rings[shard_id],
                    obs_dict=self.obs.to_dict() if self.registry is not None else None,
                )
                for shard_id in range(n_workers)
            ]
            fan_in = FanInSink(
                self.sinks, n_shards=n_workers, obs=self.registry, window_s=self.config.window_s
            )
        except BaseException:
            # The main try/finally below is not reached: reclaim the
            # segments here or a failed construction (fd exhaustion, a bad
            # sink) would leak them for the life of the parent.
            for ring in rings:
                ring.close()
                ring.unlink()
            raise
        self._out_queue = out_queue
        self._fan_in = fan_in
        self._workers = workers
        #: Names, not rings: what a leak check probes once the run is over.
        self._segment_names = [ring.name for ring in rings]
        self._links = links = [_ForwardLink(self, worker) for worker in workers]
        self._done = [False] * n_workers
        self._stats: list[dict | None] = [None] * n_workers
        #: In-flight migration plumbing: ``migrated`` replies awaiting
        #: pickup, fences installed, and per-dst fences acked but not yet
        #: lifted (waiting for the dst's first post-restore watermark).
        self._migrated: dict[int, tuple] = {}
        self._live_fences: set[int] = set()
        self._acked_fences: dict[int, list[int]] = {}
        driver = (
            _RebalanceDriver(self, self.rebalance) if self.rebalance is not None else None
        )
        registry = self.registry
        if registry is not None:
            for sink in self.sinks:
                bind = getattr(sink, "bind_registry", None)
                if bind is not None:
                    bind(registry)
        n_packets = 0
        stream_started = drain_started = started
        try:
            for worker in workers:
                worker.start()
            stream_started = perf_counter()
            # The source yields struct-of-arrays blocks (native fast paths
            # for traces and pcap files), the router hashes once per unique
            # flow, and each shard's forward link carries its sub-block:
            # array buffers in a ring slot or a pickle, never packet objects.
            blocks = iter_blocks(self.source, self.chunk_size)
            if registry is not None:
                blocks = registry.timed_iter(blocks, "source_read")
            for block in blocks:
                n_packets += len(block)
                if driver is not None:
                    driver.observe_block(block)
                span = perf_counter() if registry is not None else 0.0
                parts = self.router.partition_block(block)
                if registry is not None:
                    registry.time_stage("router_partition", span)
                    self._advance_stream_clocks(parts)
                    span = perf_counter()
                for shard_id, sub_block in parts:
                    links[shard_id].add(sub_block)
                if registry is not None:
                    registry.time_stage("forward_push", span)
                    registry.inc("qoe_router_blocks_total")
                    registry.inc("qoe_router_packets_total", len(block))
                # Drain whatever the workers produced so far: estimates
                # reach the sinks while the run is in flight (live scrapes
                # work) and parent memory stays O(in-flight), not O(all
                # estimates of the capture).
                self._pump()
                if driver is not None:
                    # Migrations cut between blocks: every packet of the
                    # block is routed (or slot-buffered) before any flow of
                    # it can move.
                    driver.tick()
            for link in links:
                link.flush()
            drain_started = perf_counter()
            for worker in workers:
                self._send(worker, ("stop",))
            self._drain_until_done()
        finally:
            # Merge whatever arrived, close the caller's sinks exactly once,
            # and never leave worker processes (or their queue feeder
            # threads) behind to block interpreter exit.  Shared-memory
            # rings are unlinked here unconditionally -- normal exit, abort,
            # and worker death all reclaim the OS segments -- and the
            # process/segment cleanup must run even when a caller's sink
            # raises again out of fan_in.close().
            try:
                fan_in.close()
            finally:
                for worker in workers:
                    worker.terminate()
                    worker.join(timeout=5.0)
                    worker.release_queues()
                for ring in rings:
                    ring.close()
                    ring.unlink()
                out_queue.cancel_join_thread()
                out_queue.close()
                # A finished monitor keeps no queue, ring or process handle:
                # they pin named semaphores (38 at one worker and default
                # depth) and _ForwardLink._monitor closes a cycle, so left
                # set they would wait for the cycle collector -- or for
                # interpreter exit, after the resource tracker has already
                # reclaimed the names.
                del self._links, self._workers, self._out_queue
        self.shard_stats = [stats if stats is not None else {} for stats in self._stats]
        for shard_id, (stats, link) in enumerate(zip(self.shard_stats, links)):
            forward = link.stats()
            if not forward:
                continue
            stats.setdefault("transport", {})["forward"] = forward
            if registry is not None:
                # The parent produced into the forward rings, so it owns
                # these counters; the reverse direction arrived with each
                # shard's done delta.  Together the registry mirrors
                # MonitorReport.transport exactly.
                ingest_transport_stats(registry, forward, "forward", shard_id)
        transport = self._aggregate_transport()
        if self.rebalance is not None:
            transport["rebalance"] = {"migrations": len(self.migrations)}
        finished = perf_counter()
        timing = {
            "wall_time_s": finished - started,
            "setup_s": stream_started - started,
            "stream_s": drain_started - stream_started,
            "drain_s": finished - drain_started,
        }
        return MonitorReport(
            n_packets=n_packets,
            n_estimates=fan_in.records_released,
            n_flows=sum(stats.get("n_flows", 0) for stats in self.shard_stats),
            n_evicted_flows=sum(stats.get("n_evicted_flows", 0) for stats in self.shard_stats),
            wall_time_s=finished - started,
            transport=transport,
            timing=timing,
            metrics=self.metrics(),
            shard_loads=tuple(load if load is not None else {} for load in self.shard_loads),
            migration=summarize_migrations(self.migrations),
        )

    # -- observability ---------------------------------------------------------

    def metrics(self) -> dict:
        """The fleet metrics snapshot (``{}`` when observability is off).

        Callable mid-run (the health surface a scraper reads, via
        :func:`~repro.obs.render.render_prometheus`) or after :meth:`run`,
        when the same snapshot also rides ``MonitorReport.metrics``.
        Per-shard gauges are synced at snapshot time: load from the latest
        worker telemetry, and ``qoe_shard_watermark_lag_seconds`` -- how far
        (in stream time) the shard's fan-in watermark trails the newest
        packet routed to it, i.e. how far behind the stream its answers are.
        """
        if self.registry is None:
            return {}
        for shard_id, load in enumerate(self.shard_loads):
            if not load:
                continue
            for key in ("live_flows", "buffered_packets", "open_windows"):
                value = load.get(key)
                if value is not None:
                    self.registry.set_gauge(
                        f"qoe_shard_{key}", value, (("shard", str(shard_id)),)
                    )
        if self._fan_in is not None:
            for shard_id, newest in enumerate(self._newest_routed):
                lag = newest - self._fan_in.watermark(shard_id)
                # Not finite until the shard has been routed a packet and
                # has reported a watermark.
                if math.isfinite(lag):
                    self.registry.set_gauge(
                        "qoe_shard_watermark_lag_seconds", lag, (("shard", str(shard_id)),)
                    )
        return self.registry.snapshot()

    # -- live migration --------------------------------------------------------

    def _migrate(self, flow, dst: int) -> None:
        """Synchronously re-home one canonical flow pair (stop-and-copy).

        The cut happens between routed blocks: the source shard first
        receives everything already routed to it (its forward link is flushed
        ahead of the control message on the same FIFO queue), drains
        the pair into snapshots, and replies.  A fan-in fence then covers
        the in-flight windows until the destination has restored the pair
        and reported a fresh watermark -- see ``_lift_fences``.  The router
        overlay is updated last, so every packet routed before the cut went
        to the old home and every one after goes to the new.
        """
        if not 0 <= dst < self.n_workers:
            raise ValueError(f"migration dst {dst!r} out of range for {self.n_workers} shards")
        canonical = flow.bidirectional()[0]
        src = self.router.shard_of_key(canonical)
        if src == dst or self._done[src] or self._done[dst]:
            return
        epoch = self.router.next_epoch()
        started = perf_counter()
        self._links[src].flush()
        self._send(self._workers[src], ("migrate_out", canonical, epoch))
        parts, bound, counted = self._await_migration(src, epoch)
        if parts and bound is not None:
            self._fan_in.add_fence(epoch, bound)
            self._live_fences.add(epoch)
        self._send(self._workers[dst], ("migrate_in", canonical, epoch, parts, counted))
        self.router.set_override(canonical, dst)
        latency_s = perf_counter() - started
        self.migrations.append(
            {
                "epoch": epoch,
                "flow": canonical,
                "src": src,
                "dst": dst,
                "latency_s": latency_s,
            }
        )
        if self.registry is not None:
            self.registry.inc("qoe_migrations_total")
            self.registry.observe_stage("migration_cut", latency_s)

    def _await_migration(self, src: int, epoch: int) -> tuple:
        """Pump worker output until shard ``src``'s ``migrated`` reply lands.

        Keeps handling interleaved messages (est tokens free return-ring
        slots, so the drain cannot deadlock) and surfaces a worker death
        instead of hanging.
        """
        while epoch not in self._migrated:
            try:
                message = self._out_queue.get(timeout=0.1)
            except queue_module.Empty:
                worker = self._workers[src]
                if not worker.alive and not self._done[src]:
                    self._pump()
                    if epoch in self._migrated:
                        break
                    # The queue timeout is incidental; worker death is the
                    # real cause, so don't chain the Empty.
                    raise RuntimeError(
                        f"shard worker {src} died (exit code "
                        f"{worker.process.exitcode}) during migration epoch {epoch}"
                    ) from None
                continue
            self._handle(message)
        return self._migrated.pop(epoch)

    def _lift_fences(self, shard_id: int, low_watermark: float | None) -> None:
        """Lift fences whose destination shard reported a post-restore bound.

        A migration's fence outlives its ``migrate_ack``: the destination's
        *recorded* fan-in watermark predates the restore and may exceed the
        migrated flow's pending windows, so the fence holds until the
        shard's first watermark computed with the flow live again.  That
        watermark is the one sanctioned regression -- it is installed
        verbatim (``rebase_watermark``) and only then are the fences
        dropped.

        Called *after* the batch carrying ``low_watermark`` has been
        accepted: the batch itself may contain windows below its trailing
        watermark (legal -- the watermark bounds *future* emissions), and
        lifting the fence first would let the release threshold pass items
        that are still in the message being handled.  Accepting first is
        safe because the fence keeps capping the threshold throughout the
        accept, stale recorded watermark or not.
        """
        if low_watermark is None:
            return
        epochs = self._acked_fences.pop(shard_id, None)
        if not epochs:
            return
        self._fan_in.rebase_watermark(shard_id, low_watermark)
        for epoch in epochs:
            self._live_fences.discard(epoch)
            self._fan_in.clear_fence(epoch)

    def _clear_fences(self, shard_id: int) -> None:
        """Drop a finishing shard's pending fences: its flush has arrived."""
        for epoch in self._acked_fences.pop(shard_id, ()):
            self._live_fences.discard(epoch)
            self._fan_in.clear_fence(epoch)

    # -- internals -------------------------------------------------------------

    def _advance_stream_clocks(self, parts) -> None:
        """Note one routed block's timestamps for the lag metrics (obs only)."""
        newest_routed = self._newest_routed
        for shard_id, sub_block in parts:
            newest = float(sub_block.timestamps.max())
            if newest > newest_routed[shard_id]:
                newest_routed[shard_id] = newest
        self._fan_in.newest_routed = max(newest_routed)

    def _send(self, worker: ShardWorker, message) -> None:
        """Bounded put onto ``worker``'s input queue (see ``_pump_blocked_on``)."""
        while True:
            try:
                worker.in_queue.put(message, timeout=0.05)
                return
            except queue_module.Full:
                self._pump_blocked_on(worker)

    def _pump_blocked_on(self, worker: ShardWorker) -> None:
        """One turn of waiting on ``worker``'s full input queue or ring.

        Keeps draining output, so back-pressure cannot deadlock the parent
        against a worker blocked on its own output (the pump also frees
        return-ring slots); a dead worker raises instead of hanging the run.
        """
        self._pump()
        if not worker.alive and not self._done[worker.shard_id]:
            raise RuntimeError(
                f"shard worker {worker.shard_id} died (exit code "
                f"{worker.process.exitcode}) before accepting input"
            ) from None

    def _aggregate_transport(self) -> dict:
        """Fleet-level ring telemetry: per-direction counters over shards.

        Counts sum; high-water marks take the max.  Empty on the
        ``"block"`` transport.
        """
        transport: dict = {}
        for stats in self.shard_stats:
            for direction, counters in stats.get("transport", {}).items():
                agg = transport.setdefault(direction, {})
                for key, value in counters.items():
                    if key in ("occupancy_hwm", "max_segments_per_slot"):
                        agg[key] = max(agg.get(key, 0), value)
                    else:
                        agg[key] = agg.get(key, 0) + value
        return transport

    def _pump(self) -> None:
        """Process every worker message currently available, without blocking."""
        while True:
            try:
                message = self._out_queue.get_nowait()
            except queue_module.Empty:
                return
            self._handle(message)

    def _drain_until_done(self) -> None:
        """Block until every shard reported ``done`` (or a failure surfaces)."""
        while not all(self._done):
            try:
                message = self._out_queue.get(timeout=0.1)
            except queue_module.Empty:
                for worker in self._workers:
                    if not self._done[worker.shard_id] and not worker.alive:
                        # One last non-blocking sweep: the death may have
                        # raced a final message into the queue.
                        self._pump()
                        if not self._done[worker.shard_id]:
                            raise RuntimeError(
                                f"shard worker {worker.shard_id} exited (code "
                                f"{worker.process.exitcode}) without reporting results"
                            ) from None
                continue
            self._handle(message)

    def _absorb_load(self, shard_id: int, load: dict | None) -> None:
        """Record one shard's load telemetry, merging any piggybacked delta.

        The ``metrics`` entry is the worker registry's delta since its last
        shipped message (see ``_WorkerChannel._with_delta``); it is popped
        before the load dict is stored so ``shard_loads`` stays the plain
        rebalancer telemetry it always was.
        """
        if load is None:
            return
        delta = load.pop("metrics", None)
        if delta is not None and self.registry is not None:
            self.registry.merge(delta)
        if load:
            self.shard_loads[shard_id] = load

    def _handle(self, message) -> None:
        kind = message[0]
        if kind == "progress":
            _, shard_id, items, low_watermark, load = message
            self._absorb_load(shard_id, load)
            self._fan_in.accept(shard_id, items, low_watermark)
            self._lift_fences(shard_id, low_watermark)
        elif kind == "est":
            # One filled return-ring slot: decode every tick batch in it
            # (zero-copy views over the slot), feed the fan-in, then recycle
            # the slot.  The pairing mirrors the forward direction: the
            # worker fills the slot before enqueueing the token, and both
            # sides walk slots in token order.
            _, shard_id, load = message
            self._absorb_load(shard_id, load)
            ring = self._workers[shard_id].return_ring
            segments = ring.pop_segments(timeout=5.0)
            if segments is None:  # pragma: no cover - token/slot pairing guard
                raise RuntimeError(
                    f"shard {shard_id} announced estimates but its return ring is empty"
                )
            try:
                for segment in segments:
                    batch = EstimateBatch.read_from(segment)
                    self._fan_in.accept(shard_id, batch.to_estimates(), batch.low_watermark)
                    self._lift_fences(shard_id, batch.low_watermark)
                    batch = None
            finally:
                segments = None
                try:
                    ring.release()
                except BufferError:
                    # Only reachable when accept() raised with decoded views
                    # still alive in the failing frame; the run's cleanup
                    # reclaims the whole segment regardless.
                    pass
        elif kind == "done":
            _, shard_id, items, stats = message
            delta = stats.pop("metrics", None)
            if delta is not None and self.registry is not None:
                self.registry.merge(delta)
            if stats.get("load") is not None:
                self.shard_loads[shard_id] = stats["load"]
            self._fan_in.accept(shard_id, items)
            self._clear_fences(shard_id)
            self._fan_in.finish(shard_id)
            self._done[shard_id] = True
            self._stats[shard_id] = stats
        elif kind == "migrated":
            _, shard_id, epoch, parts, bound, counted = message
            self._migrated[epoch] = (parts, bound, counted)
        elif kind == "migrate_ack":
            # The pair is live on its new home; its fences now wait for that
            # shard's next watermark (every message after this ack on the
            # same FIFO queue was computed with the restored flows present).
            _, shard_id, epoch = message
            if epoch in self._live_fences:
                self._acked_fences.setdefault(shard_id, []).append(epoch)
        elif kind == "error":
            _, shard_id, trace = message
            raise RuntimeError(f"shard worker {shard_id} failed:\n{trace}")
        else:  # pragma: no cover - protocol guard
            raise RuntimeError(f"unknown worker message {message[0]!r}")
