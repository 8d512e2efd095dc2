"""The Source -> Engine -> Sink facade: a deployable QoE monitor in one object.

:class:`QoEMonitor` wires the three composable layers of the public API
together:

* a **source** (:mod:`repro.sources`) provides packets -- a pcap file, a
  materialized trace, a live-capture generator, or a k-way merge of several
  capture points;
* the **engine** (:class:`~repro.core.streaming.StreamingQoEPipeline`)
  demultiplexes by 5-tuple and emits one estimate per flow per window, with
  O(window) state per live flow;
* the **sinks** (:mod:`repro.sinks`) consume estimates as they are emitted --
  collectors, JSONL/CSV files, rolling summaries, scrape counters.

Train-once / deploy-many::

    # in the lab
    pipeline = QoEPipeline.for_vca("teams").train(lab_calls)
    pipeline.save("teams.model.json")

    # at every deployment site
    monitor = QoEMonitor.from_model(
        "teams.model.json",
        source=PcapSource("capture.pcap"),
        sinks=[JSONLinesSink("estimates.jsonl"), SummarySink(degraded_fps_threshold=18)],
    )
    report = monitor.run()

Behaviour (windowing, reordering tolerance, liveness, idle eviction) comes
from the pipeline's frozen :class:`~repro.core.config.PipelineConfig`;
``config=...`` overrides it per monitor.  When the config sets
``idle_timeout_s``, flows that go quiet for that long (in stream time) are
flushed and evicted automatically, so a perpetual monitor's memory tracks
*live* flows only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.core.config import PipelineConfig
from repro.core.pipeline import QoEPipeline
from repro.core.streaming import StreamEstimate, StreamingQoEPipeline, add_counters
from repro.obs.config import ObsConfig
from repro.obs.registry import MetricsRegistry
from repro.sources.base import DEFAULT_BLOCK_SIZE, PacketSource, as_source, iter_blocks

__all__ = ["MonitorReport", "QoEMonitor", "IdleEvictionSchedule"]


@dataclass(frozen=True)
class MonitorReport:
    """What one monitor run processed.

    Produced with identical semantics by :class:`QoEMonitor` and
    :class:`~repro.cluster.ShardedQoEMonitor`, so operator tooling reads one
    report type regardless of deployment shape.

    ``packets_consumed`` / ``flows_seen`` / ``wall_time_s`` are the
    throughput counters: packets the engine(s) consumed, distinct flows
    observed (including evicted ones), and wall-clock duration of the run --
    enough to compute packets/sec (:attr:`packets_per_s`) without a separate
    benchmark harness.  The first two are operator-facing names for
    ``n_packets`` / ``n_flows`` (properties, so they cannot drift);
    ``wall_time_s`` is excluded from equality so two runs over the same
    capture compare equal.

    ``transport`` carries fleet-level shared-memory ring telemetry on the
    sharded monitor's ``"shm"`` transport (``{"forward": {...}, "reverse":
    {...}}`` counters: slot occupancy high-water mark, slots
    written/reused, segments per slot, queue fallbacks) and is empty for
    every other deployment shape.  Like ``wall_time_s`` it describes how
    the run executed rather than what it computed, so it is excluded from
    equality too.

    The PR 8 observability surfaces follow the same convention (all
    execution-describing, all ``compare=False``):

    * ``timing`` -- the wall-clock breakdown ``{"wall_time_s", "setup_s",
      "stream_s", "drain_s"}`` (phases sum to the wall time).
      :attr:`stream_packets_per_s` divides by ``stream_s + drain_s`` --
      first source read to sinks closed -- so worker spawn no longer
      dilutes the throughput reading the way it does :attr:`packets_per_s`.
    * ``metrics`` -- the final registry snapshot (see
      :meth:`MetricsRegistry.snapshot
      <repro.obs.registry.MetricsRegistry.snapshot>`) when the monitor ran
      with an enabled :class:`~repro.obs.config.ObsConfig`; ``{}``
      otherwise.  Feed it to
      :func:`~repro.obs.render.render_prometheus` for a scrape-format dump.
    * ``shard_loads`` -- the final per-shard load telemetry of a sharded
      run (one ``{"live_flows", "buffered_packets", "open_windows"}`` dict
      per shard, ``{}`` for shards that never reported).
    * ``counters`` -- the engine's always-on slow-path and drop counters
      (see :func:`~repro.core.streaming.engine_counters`), summed over the
      shards of a sharded run: block rows that took the per-packet fallback
      (``scalar_fallback_rows``, by reason) and packets dropped for arriving
      later than ``reorder_depth`` can absorb (``late_reorder_dropped``).
    """

    n_packets: int
    n_estimates: int
    n_flows: int
    n_evicted_flows: int
    wall_time_s: float = field(default=0.0, compare=False)
    transport: dict = field(default_factory=dict, compare=False)
    timing: dict = field(default_factory=dict, compare=False)
    metrics: dict = field(default_factory=dict, compare=False)
    shard_loads: tuple = field(default=(), compare=False)
    counters: dict = field(default_factory=dict, compare=False)

    @property
    def packets_consumed(self) -> int:
        """Packets the engine(s) consumed (throughput-counter alias)."""
        return self.n_packets

    @property
    def flows_seen(self) -> int:
        """Distinct flows observed, including evicted ones (alias)."""
        return self.n_flows

    @property
    def packets_per_s(self) -> float:
        """Observed monitor throughput (0.0 when the run was too fast to time)."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.n_packets / self.wall_time_s

    @property
    def stream_packets_per_s(self) -> float:
        """End-to-end throughput: first source read to sinks closed.

        Divides by ``timing["stream_s"] + timing["drain_s"]`` when the
        breakdown is available, so only setup (worker spawn, model rebuild)
        is excluded.  The drain phase counts: a sharded parent enqueues far
        faster than its workers consume, so most of the work lands there,
        and dividing by the enqueue phase alone overstated by up to 4x.
        Falls back to :attr:`packets_per_s` for reports without timing.
        """
        busy_s = self.timing.get("stream_s", 0.0) + self.timing.get("drain_s", 0.0)
        if busy_s > 0.0:
            return self.n_packets / busy_s
        return self.packets_per_s


class IdleEvictionSchedule:
    """Amortized idle-eviction scheduling, shared by every monitor loop.

    Both :class:`QoEMonitor` (per packet) and the sharded
    :class:`~repro.cluster.worker.ShardWorker` loop (per block) feed stream
    time in and sweep when :meth:`due` fires: at most one O(live flows)
    ``evict_idle`` scan per ``idle_timeout_s`` of capture, starting one
    timeout after the first observation.  One implementation keeps the two
    loops' eviction timing from drifting apart.
    """

    def __init__(self, idle_timeout_s: float | None) -> None:
        self.idle_timeout_s = idle_timeout_s
        self._next: float | None = None

    def due(self, timestamp: float) -> bool:
        """Advance stream time; true when an eviction sweep should run now."""
        if self.idle_timeout_s is None:
            return False
        if self._next is None or timestamp >= self._next:
            was_due = self._next is not None
            self._next = timestamp + self.idle_timeout_s
            return was_due
        return False


class QoEMonitor:
    """Run a (trained or heuristic) pipeline from a source into sinks.

    Parameters
    ----------
    pipeline:
        The estimator stack (:class:`~repro.core.pipeline.QoEPipeline`).
    source:
        Anything :func:`~repro.sources.base.as_source` understands: a
        :class:`~repro.sources.base.PacketSource`, a
        :class:`~repro.net.trace.PacketTrace`, a pcap path, or a bare packet
        iterable.
    sinks:
        A sink or sequence of sinks (:mod:`repro.sinks`); every emitted
        estimate is fanned out to all of them, in order.
    config:
        Overrides ``pipeline.config`` for this monitor (e.g. enabling
        ``idle_timeout_s`` or ``max_frame_age_s`` for a live deployment).
    batch_grid:
        When true (requires ``demux_flows=False`` in the effective config),
        estimates are produced on the batch window grid ``[start,
        end_time)`` -- exactly what ``QoEPipeline.estimate`` returns,
        including leading empty windows.  The source runs as blocks of
        ``block_size`` rows (the source's native size when ``None``)
        through the engine's ``push_block`` tick, the same batch path as
        ``estimate``.  Sinks then receive everything at end of source
        rather than as windows close.  Use for offline scoring of
        single-session captures; leave false for live monitoring.
    block_size:
        When set, the monitor drives the engine's columnar hot path: the
        source is consumed as struct-of-arrays
        :class:`~repro.net.block.PacketBlock` batches of this many packets
        (:func:`~repro.sources.base.iter_blocks`; traces and pcap files
        have native array-level readers) and fed through
        :meth:`StreamingQoEPipeline.push_block
        <repro.core.streaming.StreamingQoEPipeline.push_block>`.  Estimates
        are bit-identical to the per-packet default *including emission
        order* (pinned by tests); idle-eviction sweeps run on block
        boundaries, so with ``idle_timeout_s`` enabled evictions can land
        up to one block later than in per-packet mode.  ``None`` (default)
        keeps the per-packet loop.
    obs:
        An :class:`~repro.obs.config.ObsConfig` enabling the telemetry
        plane: the monitor owns a :class:`~repro.obs.registry.MetricsRegistry`
        (exposed via :meth:`metrics` and ``MonitorReport.metrics``), the
        engine records tick counters and stage spans into it, and -- in
        block mode -- source reads and sink fan-out get spans of their own.
        The per-packet loop records nothing per packet (counters sync once
        at end of run), keeping its overhead at zero.  ``None`` or
        ``ObsConfig(enabled=False)`` (default) disables everything;
        estimates are bit-identical either way.
    """

    def __init__(
        self,
        pipeline: QoEPipeline,
        source,
        sinks=(),
        config: PipelineConfig | None = None,
        batch_grid: bool = False,
        block_size: int | None = None,
        obs: ObsConfig | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.source: PacketSource = as_source(source)
        if hasattr(sinks, "emit"):  # a single sink was passed
            sinks = (sinks,)
        self.sinks = tuple(sinks)
        self.config = config if config is not None else pipeline.config
        if batch_grid and self.config.demux_flows:
            raise ValueError(
                "batch_grid requires demux_flows=False (one pre-isolated session); "
                "pass config=pipeline.config.replace(demux_flows=False)"
            )
        self.batch_grid = batch_grid
        if block_size is not None and block_size < 1:
            raise ValueError(f"block_size must be >= 1 (or None), got {block_size!r}")
        self.block_size = block_size
        self.obs = obs
        #: The monitor's :class:`~repro.obs.registry.MetricsRegistry`
        #: (``None`` when observability is off).
        self.registry: MetricsRegistry | None = (
            MetricsRegistry(obs) if obs is not None and obs.enabled else None
        )
        #: The engine of the (current or completed) :meth:`run`.
        self.engine: StreamingQoEPipeline | None = None
        self._ran = False

    # -- construction shortcuts ------------------------------------------------

    @classmethod
    def for_vca(cls, vca: str, source, sinks=(), config: PipelineConfig | None = None, **kwargs) -> "QoEMonitor":
        """An untrained (heuristic-backed) monitor for ``vca``."""
        return cls(QoEPipeline.for_vca(vca, config=config), source, sinks, **kwargs)

    @classmethod
    def from_model(
        cls,
        path: str | Path,
        source,
        sinks=(),
        config: PipelineConfig | None = None,
        **kwargs,
    ) -> "QoEMonitor":
        """Deploy a model trained elsewhere: load ``path`` (see
        :meth:`QoEPipeline.save <repro.core.pipeline.QoEPipeline.save>`) and
        front it with ``source``/``sinks``."""
        return cls(QoEPipeline.load(path), source, sinks=sinks, config=config, **kwargs)

    # -- execution -------------------------------------------------------------

    def run(self) -> MonitorReport:
        """Consume the source to exhaustion, fanning estimates into the sinks.

        One-shot: sinks are closed when the source is exhausted (file sinks
        flush to disk), so a monitor cannot be run twice -- construct a new
        one (with fresh sinks) to score another capture.  Returns a
        :class:`MonitorReport` of what was processed.
        """
        if self._ran:
            raise RuntimeError(
                "this monitor already ran and closed its sinks; construct a new "
                "QoEMonitor (with fresh sinks) for the next capture"
            )
        self._ran = True
        registry = self.registry
        started = perf_counter()
        # The engine records into the same registry whenever it runs
        # push_block: the monitor-level counters below are loop totals, the
        # engine's are per-tick.  In the per-packet loop the engine sees
        # obs=None -- a span per packet is exactly the overhead that mode
        # exists to avoid -- and the loop syncs its counters into the
        # registry once, at end of run.
        engine_obs = registry if self.block_size is not None or self.batch_grid else None
        self.engine = engine = StreamingQoEPipeline(
            self.pipeline, config=self.config, obs=engine_obs
        )
        if registry is not None:
            for sink in self.sinks:
                bind = getattr(sink, "bind_registry", None)
                if bind is not None:
                    bind(registry)
        stream_started = perf_counter()
        try:
            loop = self._run_batch if self.batch_grid else self._run_stream
            n_packets, n_estimates, n_flows, n_evicted, drain_started = loop(engine)
        finally:
            for sink in self.sinks:
                sink.close()
        if registry is not None:
            registry.inc("qoe_monitor_packets_total", n_packets)
            registry.inc("qoe_monitor_estimates_total", n_estimates)
            registry.inc("qoe_monitor_evicted_flows_total", n_evicted)
            registry.set_gauge("qoe_monitor_flows_seen", n_flows)
        finished = perf_counter()
        return MonitorReport(
            n_packets=n_packets,
            n_estimates=n_estimates,
            n_flows=n_flows,
            n_evicted_flows=n_evicted,
            wall_time_s=finished - started,
            timing={
                "wall_time_s": finished - started,
                "setup_s": stream_started - started,
                "stream_s": drain_started - stream_started,
                "drain_s": finished - drain_started,
            },
            metrics=self.metrics(),
            counters=add_counters({}, engine.counters),
        )

    def _run_stream(self, engine: StreamingQoEPipeline) -> tuple[int, int, int, int, float]:
        """The live loop.  Like :meth:`_run_batch`, returns ``(n_packets,
        n_estimates, n_flows, n_evicted, drain_started)``; :meth:`run` owns
        the sinks' close and the report."""
        registry = self.registry
        idle_timeout = self.config.idle_timeout_s
        eviction = IdleEvictionSchedule(idle_timeout)
        n_packets = 0
        n_estimates = 0
        n_evicted = 0
        flows_seen: set = set()
        if self.block_size is not None:
            fanout = self._fanout if registry is None else self._fanout_timed
            for block in self._blocks():
                n_packets += len(block)
                n_estimates += fanout(engine.push_block(block))
                if len(block) and eviction.due(float(block.timestamps.max())):
                    evicted = engine.evict_idle(idle_timeout)
                    n_evicted += len({item.flow for item in evicted})
                    flows_seen.update(item.flow for item in evicted)
                    n_estimates += fanout(evicted)
        else:
            for packet in self.source:
                n_packets += 1
                n_estimates += self._fanout(engine.push(packet))
                if eviction.due(packet.timestamp):
                    evicted = engine.evict_idle(idle_timeout)
                    n_evicted += len({item.flow for item in evicted})
                    flows_seen.update(item.flow for item in evicted)
                    n_estimates += self._fanout(evicted)
        drain_started = perf_counter()
        n_estimates += self._fanout(engine.flush())
        flows_seen.update(engine.live_flows)
        return n_packets, n_estimates, len(flows_seen), n_evicted, drain_started

    def _run_batch(self, engine: StreamingQoEPipeline) -> tuple[int, int, int, int, float]:
        """The batch-grid loop: the source's blocks through the engine's
        batch collector; everything reaches the sinks at end of source."""
        n_packets = 0

        def counted(blocks):
            nonlocal n_packets
            for block in blocks:
                n_packets += len(block)
                yield block

        estimates = engine._collect_batch(counted(self._blocks()))
        drain_started = perf_counter()
        self._fanout([StreamEstimate(flow=None, estimate=e) for e in estimates])
        return n_packets, len(estimates), 1 if estimates else 0, 0, drain_started

    def _blocks(self):
        """The source as columnar blocks of ``block_size`` rows (its native
        size when ``None``), each read timed as a ``source_read`` span when
        observability is on."""
        blocks = iter_blocks(self.source, self.block_size or DEFAULT_BLOCK_SIZE)
        if self.registry is not None:
            blocks = self.registry.timed_iter(blocks, "source_read")
        return blocks

    def _fanout(self, items: list[StreamEstimate]) -> int:
        for item in items:
            for sink in self.sinks:
                sink.emit(item)
        return len(items)

    def _fanout_timed(self, items: list[StreamEstimate]) -> int:
        """Block-mode fan-out with a ``sink_emit`` span per non-empty batch."""
        if not items:
            return 0
        started = perf_counter()
        n = self._fanout(items)
        self.registry.time_stage("sink_emit", started)
        return n

    # -- observability ---------------------------------------------------------

    def metrics(self) -> dict:
        """The registry snapshot (``{}`` when observability is off).

        Callable mid-run or after :meth:`run`; the end-of-run snapshot also
        rides ``MonitorReport.metrics``.  Render with
        :func:`~repro.obs.render.render_prometheus` for a scrape.
        """
        if self.registry is None:
            return {}
        return self.registry.snapshot()
