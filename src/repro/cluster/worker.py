"""Shard worker processes: one streaming engine per shard.

A worker is deliberately *not* constructed from a live ``QoEPipeline``
object: it receives the JSON payload of :meth:`QoEPipeline.to_payload
<repro.core.pipeline.QoEPipeline.to_payload>` -- the exact bytes
``QoEPipeline.save`` writes to disk -- plus a
:class:`~repro.core.config.PipelineConfig` dict, and rebuilds the pipeline
on its side of the process boundary.  That keeps workers **spawn-safe**
(everything crossing the boundary is plain JSON-able data and packet
blocks, no trees/forests/closures to pickle) and exercises the persistence
format as the cluster's wire format: a worker is indistinguishable from a
deployment site that loaded the model from disk, and reloaded forests
predict bit-identically by the PR 2 persistence contract.

Protocol (control messages are plain tuples over ``multiprocessing``
queues; with the shared-memory transport the *payloads* in both directions
ride :class:`~repro.cluster.shm.BlockRing` segments and the queues carry
only slot tokens)::

    parent -> worker:  ("block", bytearray)            one routed sub-block's segment, pickled
                       ("shm",)                        one ring slot (>= 1 segments)
                       ("stop",)                       end of source
    worker -> parent:  ("progress", shard_id, [StreamEstimate], low_watermark, load)
                       ("est", shard_id, load)         one return-ring slot (>= 1 tick batches)
                       ("done", shard_id, [StreamEstimate], stats dict)
                       ("error", shard_id, traceback string)

``load`` is the shard's live telemetry (live flows, buffered packets, open
windows -- :meth:`StreamingQoEPipeline.load_stats`), attached to every
watermark-bearing message so the parent has a mid-run load signal
(terminal ``done`` stats carry the final reading).

The :class:`~repro.net.block.PacketBlock` is the only data unit a worker
receives, and it always arrives as a **segment of the shard's forward
link**: the block's IP/UDP header columns, with addresses and flows coded
against the link table, plus the table entries new to the link (a
:class:`~repro.net.block.LinkEncoder` on the parent side, one
:class:`~repro.net.block.LinkDecoder` here).  A flow's key crosses the link
once, so the worker builds each :class:`~repro.net.flows.FlowKey` once, and
every block it decodes between two table resets shares one ``flows`` /
``addresses`` pair, which ``PacketBlock.concat`` joins without re-interning.
Segments are decoded strictly in the order the parent coded them, whichever
carrier brought them.  A ``("block", ...)`` message carries one segment as
pickled bytes: all of ``transport="block"``, and ``transport="shm"``'s
fallback for a single row whose table delta outsizes a slot.  A
``("shm",)`` token instead announces a ring slot the parent wrote segments
into (several per slot behind length-prefixed segment headers): the worker
decodes zero-copy array views over it, consumes all of them as one
inference tick, and only then releases the slot.  Either way the block is
header-only (the router strips every other column), so the worker receives
IP/UDP header fields and nothing else.

The return direction mirrors the carriers: with a return ring, per-tick
estimate batches are flat-encoded (:class:`~repro.net.estwire.EstimateBatch`)
into it and announced with ``("est", shard_id)`` tokens; without one they
ride pickled ``progress`` messages.  Both transports produce bit-identical
estimates in identical order (pinned by ``tests/cluster/``).

The worker's output protocol is linear by construction:
``(progress|est)* -> done | error``.  :class:`_WorkerChannel` enforces
it -- a worker that tried to emit ``progress`` after ``done`` would pin the
fan-in's watermark assumptions (a finished shard's watermark is ``+inf``),
so the channel raises instead of letting the message out.

Inside the worker **one forward message is one inference tick**: everything
the message carries -- the single block of a ``("block", ...)`` message, or
every segment of a popped slot -- is concatenated and run as one
:meth:`StreamingQoEPipeline.push_block
<repro.core.streaming.StreamingQoEPipeline.push_block>`, followed by one
watermark and one return emission.  Windows that close in the tick -- across
all of the shard's flows -- go through the per-metric forests in a single
vectorized call, which is where cross-flow batched inference happens.  The
parent decides what shares a slot, and its forward link is self-clocking
(alone while the worker keeps up, together only while the ring is full): a
worker that keeps up ticks once per routed sub-block and answers as early as
it can, one that has fallen behind gets ticks as large as a slot -- dozens
of rows per flow instead of a handful, against a per-flow cost that barely
depends on the row count -- exactly when it is the bottleneck.

Output is a function of the routed sub-block *sequence*, never of how it was
cut into messages.  ``push_block`` is bit-identical to per-packet ``push``
at every split; the stream clock and the measured slack (below) are read
sub-block by sub-block; and the one thing whose *position* in the sequence
is output, the idle-eviction sweep (the amortized schedule
:class:`~repro.monitor.QoEMonitor` runs, driven by the shard's stream time),
cuts the tick where it falls due: push what is batched, sweep, carry on.
The ``done`` stats count ``sub_blocks`` received and ``ticks`` run, so
``n_packets / ticks`` is the rows a tick carried.

Every forward message is answered with a **low watermark** -- the shard's
promise that it will emit nothing below it
(:meth:`StreamingQoEPipeline.low_watermark
<repro.core.streaming.StreamingQoEPipeline.low_watermark>`), which is what
lets the fan-in release a window.  Live flows bound it exactly; the only
guess in it is how far behind the newest packet a brand-new flow may still
start.  That slack is **measured, not assumed**: the largest amount by
which any row this shard received trailed the newest timestamp that had
arrived before it -- three vector operations per sub-block over its
timestamps, stream time only.  On a sorted source it stays 0 and the
watermark is the minimum ``next_window_start`` over the live flows; a source
that shows disorder *d* gets *d* of slack from then on.  A flow that joins
later than anything the shard has seen before degrades only the *order* of
its late estimates -- they are still delivered exactly once.  Reported
watermarks never step back (a growing slack can lower the computed bound,
and the fan-in ignores regressions anyway).
"""

from __future__ import annotations

import json
import math
import traceback
from time import perf_counter

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import QoEPipeline
from repro.core.streaming import StreamingQoEPipeline
from repro.monitor import IdleEvictionSchedule
from repro.net.block import LinkDecoder, PacketBlock
from repro.net.estwire import EstimateBatch
from repro.obs.config import ObsConfig
from repro.obs.registry import MetricsRegistry, ingest_transport_stats

__all__ = ["ShardWorker", "shard_worker_main"]

#: The fixed two-window bound on cross-flow source disorder that every worker
#: assumed before the slack was measured (see ``shard_worker_main``).  Workers
#: no longer use it, but ``bench/``'s in-process replay of the data plane
#: models it, so it stays exported until that replay is re-pointed.
DEFAULT_NEW_FLOW_SLACK_WINDOWS = 2.0


class _WorkerChannel:
    """The worker's output queue with the linear protocol enforced.

    ``(progress|est)* -> done | error``: once :meth:`done` has been sent the
    shard is finished on the parent side (its fan-in watermark is pinned at
    ``+inf``), so a late ``progress`` or ``est`` token would be a protocol
    bug that the fan-in could only mis-order -- raise here, at the source,
    instead.
    """

    def __init__(self, shard_id: int, out_queue) -> None:
        self.shard_id = shard_id
        self._out_queue = out_queue
        self.done_sent = False
        #: The worker's :class:`~repro.obs.registry.MetricsRegistry` (set by
        #: ``shard_worker_main`` when observability is on).  Deltas are taken
        #: *here*, at the single outbound choke point, so a delta is computed
        #: exactly when -- and only when -- a message actually ships.
        self.obs: MetricsRegistry | None = None

    def _with_delta(self, load: dict | None) -> dict | None:
        if self.obs is None:
            return load
        delta = self.obs.delta()
        if delta is None:
            return load
        load = dict(load) if load is not None else {}
        load["metrics"] = delta
        return load

    def progress(self, items, low_watermark, load: dict | None = None) -> None:
        if self.done_sent:
            raise RuntimeError(
                f"shard {self.shard_id} attempted to emit progress after done"
            )
        self._out_queue.put(
            ("progress", self.shard_id, items, low_watermark, self._with_delta(load))
        )

    def estimates_ready(self, load: dict | None = None) -> None:
        """Announce one filled return-ring slot (the reverse slot token)."""
        if self.done_sent:
            raise RuntimeError(
                f"shard {self.shard_id} attempted to emit progress after done"
            )
        self._out_queue.put(("est", self.shard_id, self._with_delta(load)))

    def done(self, items, stats) -> None:
        if self.done_sent:
            raise RuntimeError(f"shard {self.shard_id} reported done twice")
        self.done_sent = True
        if self.obs is not None:
            delta = self.obs.delta()
            if delta is not None:
                stats = dict(stats)
                stats["metrics"] = delta
        self._out_queue.put(("done", self.shard_id, items, stats))

    def error(self, trace: str) -> None:
        self._out_queue.put(("error", self.shard_id, trace))


class _EstimateReturn:
    """The worker's estimate return path: ring batcher with queue fallback.

    In ring mode each tick's emissions are flat-encoded
    (:class:`~repro.net.estwire.EstimateBatch`) and buffered; the pending
    batches are then packed into **one** return-ring slot -- two semaphore
    ops total, announced by a single ``("est", shard_id)`` token -- when the
    tick's low watermark advances past everything already shipped, when the
    next batch would overflow the slot, or at end of stream.  The low
    watermark is window-grid quantized, so sub-window ticks (the common case
    for small chunk sizes) ride along in the same slot instead of paying
    per-tick semaphore ops, and the fan-in still sees every watermark
    advance the classic path would have reported.  Holding a batch for a
    watermark advance costs no emit lag: the fan-in releases nothing until
    this shard's watermark moves, so an estimate waits here exactly as long
    as it would have waited there.

    Batches the codec cannot encode (non-``FlowKey`` flows, exotic label
    types) fall back to the classic pickled ``progress`` message -- counted
    in :meth:`stats` -- so output never depends on the transport.
    """

    def __init__(self, channel: _WorkerChannel, ring, obs: MetricsRegistry | None = None) -> None:
        self._channel = channel
        self._ring = ring
        self._obs = obs
        self._pending: list[tuple[int, EstimateBatch]] = []
        self._pending_cost = 0
        self._pending_watermark = -math.inf
        self._shipped_watermark = -math.inf
        self._queue_fallbacks = 0
        self._last_load: dict | None = None

    @property
    def ring_mode(self) -> bool:
        return self._ring is not None

    def emit(self, items, low_watermark, load: dict | None = None) -> None:
        """One tick's output: buffer it, flush, or fall back as appropriate."""
        if load is not None:
            self._last_load = load
        if self._ring is None:
            self._channel.progress(items, low_watermark, load)
            return
        advanced = low_watermark is not None and low_watermark > max(
            self._shipped_watermark, self._pending_watermark
        )
        if not items and not advanced:
            # Nothing the fan-in could act on: no estimates, no watermark
            # progress.  The classic path sent these anyway; here they would
            # only burn slot segments.
            return
        try:
            batches = self._encoded(items, low_watermark)
        except ValueError:
            # Not flat-encodable (or a single estimate outsizing a slot):
            # flush first so the queue message cannot overtake ring slots
            # already filled, then let pickle carry it.
            self.flush()
            self._queue_fallbacks += 1
            self._channel.progress(items, low_watermark, load)
            return
        for size, batch in batches:
            cost = self._ring.segment_cost(size)
            if self._pending and self._pending_cost + cost > self._ring.slot_bytes:
                self.flush()
            self._pending.append((size, batch))
            self._pending_cost += cost
        if low_watermark is not None and low_watermark > self._pending_watermark:
            self._pending_watermark = low_watermark
        if advanced:
            self.flush()

    def _encoded(self, items, low_watermark) -> list[tuple[int, EstimateBatch]]:
        """Flat-encode ``items`` into slot-sized batches.

        Pure (no batcher state is touched), so a :class:`ValueError` from an
        un-encodable item can never leave half a tick in the pending list --
        the caller falls back with the *whole* tick exactly once.
        """
        batch = EstimateBatch.from_estimates(items, low_watermark)
        size = batch.byte_size()
        if self._ring.segment_cost(size) <= self._ring.slot_bytes:
            return [(size, batch)]
        if len(items) <= 1:
            raise ValueError("a single estimate outsizes a return-ring slot")
        mid = len(items) // 2
        return self._encoded(items[:mid], low_watermark) + self._encoded(
            items[mid:], low_watermark
        )

    def flush(self) -> None:
        """Pack every pending batch into one return-ring slot and announce it."""
        if not self._pending:
            return
        payloads = [(size, batch.write_into) for size, batch in self._pending]
        started = perf_counter() if self._obs is not None else 0.0
        # Blocking push: the parent frees return slots whenever it pumps its
        # output queue, which it does inside every one of its own blocking
        # loops, and an aborting parent terminates the worker outright.
        self._ring.try_push_segments(payloads, timeout=None)
        if self._obs is not None:
            self._obs.time_stage("ring_return", started)
        self._channel.estimates_ready(self._last_load)
        if self._pending_watermark > self._shipped_watermark:
            self._shipped_watermark = self._pending_watermark
        self._pending = []
        self._pending_cost = 0

    def stats(self) -> dict:
        """Reverse-path transport counters for the shard's ``done`` stats."""
        stats = dict(self._ring.transport_stats()) if self._ring is not None else {}
        stats["queue_fallbacks"] = self._queue_fallbacks
        return stats


def shard_worker_main(
    shard_id: int,
    pipeline_payload: str,
    config_dict: dict | None,
    in_queue,
    out_queue,
    ring_handle=None,
    return_handle=None,
    obs_dict: dict | None = None,
) -> None:
    """Worker process entry point (module-level, hence spawn-picklable)."""
    channel = _WorkerChannel(shard_id, out_queue)
    ring = None
    return_ring = None
    try:
        if ring_handle is not None:
            ring = ring_handle.attach()
        if return_handle is not None:
            return_ring = return_handle.attach()
        # The worker's own registry; crosses the spawn boundary as the
        # ObsConfig dict so buckets are fixed fleet-wide before any worker
        # records a sample.
        obs = MetricsRegistry(ObsConfig.from_dict(obs_dict)) if obs_dict is not None else None
        channel.obs = obs
        returns = _EstimateReturn(channel, return_ring, obs=obs)
        pipeline = QoEPipeline.from_payload(json.loads(pipeline_payload))
        config = (
            PipelineConfig.from_dict(config_dict) if config_dict is not None else pipeline.config
        )
        # The fan-in slack (module docstring): measured, 0 until the source
        # shows disorder.
        slack_s = 0.0
        engine = StreamingQoEPipeline(pipeline, config=config, obs=obs)
        idle_timeout = config.idle_timeout_s
        eviction = IdleEvictionSchedule(idle_timeout)
        newest_ts = -math.inf
        # Newest watermark reported.  A growing slack (or a flow later than
        # the slack allowed) can lower the computed bound; the fan-in ignores
        # regressions, so the reported sequence is clamped monotone.
        reported = -math.inf
        n_packets = 0
        n_evicted = 0
        # Forward messages run (plus idle-sweep cuts) and routed sub-blocks
        # received: n_packets / ticks is the rows an inference tick carried.
        n_ticks = 0
        n_sub_blocks = 0
        evicted_keys: set = set()
        # The receiving end of the forward link: both carriers' segments are
        # coded against this one table, in the order they are received.
        link = LinkDecoder()

        def consume(blocks: list[PacketBlock]) -> None:
            """One forward message: everything it carries, as one inference tick.

            The sub-blocks are pushed concatenated -- ``push_block`` is
            bit-identical to ``push`` at every split, so where the routed
            sequence was cut into messages changes no estimate and no order.
            What does depend on *when* it runs is the idle sweep, so the
            stream clock is still read sub-block by sub-block and the tick is
            cut wherever a sweep falls due: it lands after the same sub-block
            however many shared the message.
            """
            nonlocal newest_ts, slack_s, reported, n_packets, n_evicted, n_ticks, n_sub_blocks
            emitted: list = []
            batch: list[PacketBlock] = []
            n_sub_blocks += len(blocks)
            for i, block in enumerate(blocks):
                batch.append(block)
                sweep = False
                if len(block):
                    n_packets += len(block)
                    timestamps = block.timestamps
                    # Per row, the newest timestamp to have arrived up to it.
                    running = np.maximum.accumulate(timestamps)
                    np.maximum(running, newest_ts, out=running)
                    newest_ts = float(running[-1])
                    slack_s = max(slack_s, float((running - timestamps).max()))
                    sweep = eviction.due(newest_ts)
                if sweep or i == len(blocks) - 1:
                    emitted.extend(engine.push_block(PacketBlock.concat(batch)))
                    batch = []
                    n_ticks += 1
                if sweep:
                    evicted = engine.evict_idle(idle_timeout)
                    sweep_flows = {item.flow for item in evicted}
                    n_evicted += len(sweep_flows)
                    evicted_keys.update(sweep_flows)
                    emitted.extend(evicted)
            watermark = engine.low_watermark(slack_s)
            if watermark is not None:
                reported = watermark = max(watermark, reported)
            returns.emit(emitted, watermark, engine.load_stats())

        while True:
            message = in_queue.get()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "shm":
                # The paired slot is guaranteed pending: the parent releases
                # the slot's ready semaphore before enqueueing the token, and
                # both sides walk ring slots in token order.  Everything the
                # slot carries runs as one tick: the parent packs sub-blocks
                # together only while this worker is behind (the ring was
                # full), which is exactly when a larger tick pays.
                segments = ring.pop_segments()
                try:
                    consume(link.decode(segments))
                finally:
                    # Consumed: push_block copied everything it keeps, the
                    # stream clock is a scalar, and the decoded blocks (a
                    # one-segment slot is pushed as the view itself) died
                    # with consume's frame.  Drop the views, then recycle the
                    # slot for the parent.
                    segments = None
                    ring.release()
            elif kind == "block":
                consume(link.decode([message[1]]))
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown parent message {kind!r}")
        final_load = engine.load_stats()
        tail = engine.flush()
        if returns.ring_mode:
            returns.emit(tail, None)
            returns.flush()
            tail = []
        stats = {
            "n_packets": n_packets,
            "n_flows": len(evicted_keys | set(engine.flows)),
            "n_evicted_flows": n_evicted,
            "ticks": n_ticks,
            "sub_blocks": n_sub_blocks,
            "load": final_load,
            "counters": engine.counters,
        }
        if returns.ring_mode:
            reverse = returns.stats()
            stats["transport"] = {"reverse": reverse}
            if obs is not None:
                # Mirror the reverse transport counters into the registry so
                # the fleet view matches MonitorReport.transport exactly; the
                # increments ride the done message's delta.
                ingest_transport_stats(obs, reverse, "reverse", shard_id)
        channel.done(tail, stats)
    except BaseException:
        channel.error(traceback.format_exc())
    finally:
        if ring is not None:
            ring.close()
        if return_ring is not None:
            return_ring.close()


class ShardWorker:
    """Parent-side handle of one shard worker process.

    Owns the shard's bounded input queue (back-pressure: a slow shard slows
    the router rather than ballooning memory) and the process object.  All
    construction arguments are the wire-format pieces
    ``shard_worker_main`` needs; nothing process-unsafe is retained.
    """

    def __init__(
        self,
        shard_id: int,
        pipeline_payload: str,
        config: PipelineConfig | None,
        ctx,
        out_queue,
        queue_depth: int = 8,
        ring=None,
        return_ring=None,
        obs_dict: dict | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.in_queue = ctx.Queue(maxsize=queue_depth)
        #: The shard's shared-memory block rings (``None`` on the ``"block"``
        #: transport).  The parent produces into ``ring`` and consumes from
        #: ``return_ring``; the worker attaches the opposite sides from the
        #: handles passed in its arguments.
        self.ring = ring
        self.return_ring = return_ring
        self.process = ctx.Process(
            target=shard_worker_main,
            args=(
                shard_id,
                pipeline_payload,
                config.to_dict() if config is not None else None,
                self.in_queue,
                out_queue,
                ring.handle() if ring is not None else None,
                return_ring.handle() if return_ring is not None else None,
                obs_dict,
            ),
            daemon=True,
            name=f"qoe-shard-{shard_id}",
        )

        self._started = False

    def start(self) -> None:
        self.process.start()
        self._started = True

    @property
    def alive(self) -> bool:
        return self._started and self.process.is_alive()

    def join(self, timeout: float | None = None) -> None:
        # Guarded: cleanup after a failed start() (e.g. the spawn bootstrap
        # guard firing in a __main__-less script) must not cascade.
        if self._started:
            self.process.join(timeout)

    def terminate(self) -> None:
        if self._started and self.process.is_alive():
            self.process.terminate()

    def release_queues(self) -> None:
        """Detach from the input queue without waiting for its feeder thread.

        After an abort the worker may never drain its queue; letting the
        feeder thread flush to a full pipe with no reader would block the
        parent's interpreter exit.  Unsent blocks are irrelevant by then.
        """
        self.in_queue.cancel_join_thread()
        self.in_queue.close()
