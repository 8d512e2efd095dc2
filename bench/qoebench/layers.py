"""The traced run: per-layer metrics, measured from outside.

Spans are recorded by this file around calls into each layer's public
functions; nothing inside ``src/`` is instrumented.  Four kinds of pass:

* **facade** -- the real monitor, with a source proxy that times every read
  and a sink proxy that times every emit;
* **engine** -- this file drives ``iter_blocks`` -> ``push_block`` / ``push``
  -> sink -> ``flush`` exactly as ``QoEMonitor.run`` does, one span per call;
* **operators** -- each block's ``flow_groups()`` partition replayed through
  one fresh public operator per flow (classifier, frame assembler, window
  index, feature accumulator, forest), behind the same reorder delay line the
  engine applies, so call counts and rows per call match what the engine issues;
* **cluster** (sharded only) -- the routed chunks replayed in-process stage by
  stage: partition, block codec, ring round trip, one engine per shard,
  estimate codec, fan-in.

Calls below block granularity (one per flow-run, one per packet) are not
given a span each: they are timed individually or in strides of 1024 and
summed into one span per block and layer, with ``calls`` and ``busy_s``
fields.  A span without ``busy_s`` was busy for its whole duration.
"""

from __future__ import annotations

import json
import multiprocessing
from itertools import islice
from pathlib import Path
from time import perf_counter

import numpy as np

from qoebench.harness import (
    LagSink,
    TimedSource,
    WorkloadInput,
    build_input,
    count_failed,
    estimate_rows,
    make_monitor,
    run_pass,
    warm_up,
)
from qoebench.spec import PACE, PER_LAYER, Workload
from repro.cluster import BlockRing, FanInSink, FlowShardRouter
from repro.cluster.shm import DEFAULT_SLOT_BYTES
from repro.cluster.worker import DEFAULT_NEW_FLOW_SLACK_WINDOWS
from repro.core.features import IPUDPFeatureAccumulator
from repro.core.frame_assembly import FrameAssembler
from repro.core.streaming import StreamingQoEPipeline, window_indices
from repro.net.block import PacketBlock
from repro.net.estwire import EstimateBatch
from repro.net.packet import RTP_FIXED_HEADER_LEN
from repro.net.pcap import PcapReader
from repro.obs import ObsConfig
from repro.sinks import CollectorSink
from repro.sources import iter_blocks

#: Per-packet calls are timed in strides of this many.
STRIDE = 1024


class SpanLog:
    """Spans of one traced run, kept in memory until :meth:`write`."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: list[list] = []

    def add(self, name: str, start: float, end: float, parent: int | None = None, **fields) -> int:
        self.rows.append([name, start, end, parent, fields])
        return len(self.rows) - 1

    def first(self, name: str) -> int:
        """The id of the first span called ``name`` (a pass's root span)."""
        return next(span_id for span_id, row in enumerate(self.rows) if row[0] == name)

    def busy(self, name: str) -> float:
        """Seconds spent inside ``name``'s calls."""
        return sum(f.get("busy_s", end - start) for n, start, end, _, f in self.rows if n == name)

    def calls(self, name: str) -> int:
        return sum(f.get("calls", 1) for n, _, _, _, f in self.rows if n == name)

    def total(self, name: str, field: str) -> float:
        return sum(f.get(field, 0) for n, _, _, _, f in self.rows if n == name)

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span_id, (name, start, end, parent, fields) in enumerate(self.rows):
                record = {
                    "id": span_id, "workload": self.workload, "name": name,
                    "start": start, "end": end, "parent": parent, **fields,
                }
                handle.write(json.dumps(record) + "\n")


# -- facade pass: the real monitor behind timing proxies ---------------------------


class SpanSource(TimedSource):
    """:class:`TimedSource` that records a span per read (per-packet: per stride).

    Takes no host-speed probes: per-layer seconds are reported as measured.
    """

    def __init__(self, inner, clock, probe, log: SpanLog, parent: int) -> None:
        super().__init__(inner, clock, probe)
        self._log = log
        self._parent = parent

    def blocks(self, chunk_size: int):
        clock = self.clock
        self.first_read = perf_counter()
        reader = iter(self.inner.blocks(chunk_size))
        while True:
            started = perf_counter()
            block = next(reader, None)
            ended = perf_counter()
            if block is None:
                return
            self._log.add("sources.read", started, ended, self._parent, rows=len(block))
            self.last_ts = clock.newest = float(block.timestamps[-1])
            self.n_packets += len(block)
            yield block

    def __iter__(self):
        clock = self.clock
        self.first_read = perf_counter()
        reader = iter(self.inner)
        while True:
            started = perf_counter()
            stride = list(islice(reader, STRIDE))
            ended = perf_counter()
            if not stride:
                return
            self._log.add("sources.read", started, ended, self._parent, rows=len(stride), calls=len(stride))
            for packet in stride:
                clock.newest = packet.timestamp
                yield packet
            self.n_packets += len(stride)
            self.last_ts = stride[-1].timestamp


class SpanSink(LagSink):
    """:class:`LagSink` that records a span per emit and for the close."""

    def __init__(self, inner, clock, log: SpanLog, parent: int) -> None:
        super().__init__(inner, clock)
        self._log = log
        self._parent = parent

    def emit(self, item) -> None:
        started = perf_counter()
        self.inner.emit(item)
        self._log.add("sinks.emit", started, perf_counter(), self._parent)
        self.items.append(item)
        self.stamps.append((item.estimate.window_start, self.clock.now()))

    def close(self) -> None:
        started = perf_counter()
        self.inner.close()
        self.closed_at = perf_counter()
        self._log.add("sinks.close", started, self.closed_at, self._parent)


def facade_pass(built: WorkloadInput, log: SpanLog):
    root = log.add("pass.facade", 0.0, 0.0)
    result = run_pass(
        built,
        wrap_source=lambda inner, clock, probe: SpanSource(inner, clock, probe, log, root),
        wrap_sink=lambda inner, clock: SpanSink(inner, clock, log, root),
    )
    log.rows[root][1] = result.source.first_read
    log.rows[root][2] = result.sink.closed_at
    return result


# -- engine pass: QoEMonitor.run's loop, one span per engine call -------------------


def engine_pass(built: WorkloadInput, log: SpanLog) -> dict:
    workload = built.workload
    engine = StreamingQoEPipeline(built.pipeline, config=built.pipeline.config)
    sink = built.sink()
    items: list = []
    peak_buffered = peak_open = 0
    sampling_s = 0.0
    root = log.add("pass.engine", perf_counter(), 0.0)

    def emit(batch) -> None:
        if not batch:
            return
        started = perf_counter()
        for item in batch:
            sink.emit(item)
        log.add("sinks.emit", started, perf_counter(), root, calls=len(batch))
        items.extend(batch)

    def sample() -> None:
        # Bench bookkeeping, O(flows): timed so it can be taken out of the pass's wall.
        nonlocal peak_buffered, peak_open, sampling_s
        started = perf_counter()
        peak_buffered = max(peak_buffered, engine.buffered_packets)
        peak_open = max(peak_open, engine.open_windows)
        sampling_s += perf_counter() - started

    if workload.block_size is not None:
        reader = iter(iter_blocks(built.source(), workload.block_size))
        while True:
            started = perf_counter()
            block = next(reader, None)
            ended = perf_counter()
            if block is None:
                break
            log.add("sources.read", started, ended, root, rows=len(block))
            started = perf_counter()
            emitted = engine.push_block(block)
            log.add(
                "core.streaming.push_block", started, perf_counter(), root,
                rows=len(block), estimates=len(emitted),
            )
            emit(emitted)
            sample()
    else:
        reader = iter(built.source())
        while True:
            started = perf_counter()
            stride = list(islice(reader, STRIDE))
            ended = perf_counter()
            if not stride:
                break
            log.add("sources.read", started, ended, root, rows=len(stride), calls=len(stride))
            emitted = []
            push = engine.push
            started = perf_counter()
            for packet in stride:
                emitted.extend(push(packet))
            log.add("core.streaming.push", started, perf_counter(), root, calls=len(stride))
            emit(emitted)
            sample()
    started = perf_counter()
    tail = engine.flush()
    log.add("core.streaming.flush", started, perf_counter(), root, estimates=len(tail))
    emit(tail)
    started = perf_counter()
    sink.close()
    ended = perf_counter()
    log.add("sinks.close", started, ended, root)
    log.rows[root][2] = ended
    return {
        "items": items,
        "wall_s": ended - log.rows[root][1] - sampling_s,
        "peak_buffered": peak_buffered,
        "peak_open": peak_open,
        "flows": len(engine.flows),
    }


# -- operators pass: one fresh public operator per flow ------------------------------


class _FlowReplay:
    """One flow's operators and its reorder delay line."""

    __slots__ = ("tail_ts", "tail_sz", "assembler", "acc", "acc_index", "next_close")

    def __init__(self, assembler: FrameAssembler | None) -> None:
        self.tail_ts = np.empty(0)
        self.tail_sz = np.empty(0, dtype=np.int64)
        self.assembler = assembler
        self.acc: IPUDPFeatureAccumulator | None = None
        self.acc_index = -1
        self.next_close: float | None = None


def operators_pass(blocks, built: WorkloadInput, log: SpanLog, parent_name: str) -> dict:
    """Replay ``blocks`` through per-flow operators; returns exact counts."""
    pipeline = built.pipeline
    config = pipeline.config
    trained = pipeline.is_trained
    delta_size, lookback = config.resolve_assembly(pipeline.profile)
    depth = config.reorder_depth if config.reorder_depth is not None else lookback
    classifier = pipeline.ml.media_classifier if trained else pipeline.heuristic.classifier
    window_s = float(config.window_s)
    origin = config.start
    flows: dict = {}
    counts = {"flow_runs": 0, "rows": 0, "frames": 0}
    root = log.add(parent_name, perf_counter(), 0.0)
    for block in blocks:
        block_started = perf_counter()
        groups = block.flow_groups()
        ended = perf_counter()
        log.add("net.block.flow_groups", block_started, ended, root, rows=len(block), groups=len(groups))
        busy = dict.fromkeys(("mask", "assemble", "windows", "extend", "features"), 0.0)
        calls = dict.fromkeys(busy, 0)
        rows = dict.fromkeys(busy, 0)
        closed_features: list = []
        closed_starts: list[float] = []
        counts["flow_runs"] += len(groups)
        counts["rows"] += len(block)
        for code, idx in groups:
            key = block.flows[code]
            state = flows.get(key)
            if state is None:
                assembler = None if trained else FrameAssembler(delta_size=delta_size, lookback=lookback)
                state = flows[key] = _FlowReplay(assembler)
            # The engine's reorder buffer on sorted input is a delay line of
            # ``depth`` rows: what reaches the operators is buffer ++ run, minus
            # the newest ``depth`` rows.
            ts = np.concatenate((state.tail_ts, block.timestamps[idx]))
            sz = np.concatenate((state.tail_sz, block.sizes[idx]))
            n_release = len(ts) - depth
            if n_release <= 0:
                state.tail_ts, state.tail_sz = ts, sz
                continue
            state.tail_ts, state.tail_sz = ts[n_release:], sz[n_release:]
            ts, sz = ts[:n_release], sz[:n_release]
            if trained:
                started = perf_counter()
                ks = window_indices(ts, origin, window_s)
                busy["windows"] += perf_counter() - started
                calls["windows"] += 1
                rows["windows"] += n_release
                bounds = np.flatnonzero(np.diff(ks)) + 1
                starts = [0, *bounds.tolist()]
                ends = [*bounds.tolist(), n_release]
                for a, b in zip(starts, ends):
                    k = int(ks[a])
                    if state.acc is not None and k != state.acc_index:
                        started = perf_counter()
                        closed_features.append(state.acc.features())
                        busy["features"] += perf_counter() - started
                        calls["features"] += 1
                        closed_starts.append(origin + state.acc_index * window_s)
                        state.acc = None
                    if state.acc is None:
                        state.acc = IPUDPFeatureAccumulator(window_s, classifier=classifier)
                        state.acc_index = k
                    started = perf_counter()
                    state.acc.extend(ts[a:b], sz[a:b])
                    busy["extend"] += perf_counter() - started
                    calls["extend"] += 1
                    rows["extend"] += b - a
                continue
            started = perf_counter()
            mask = classifier.video_mask(sz)
            busy["mask"] += perf_counter() - started
            calls["mask"] += 1
            if not mask.all():
                ts, sz = ts[mask], sz[mask]
            if not len(ts):
                continue
            media = np.maximum(sz - RTP_FIXED_HEADER_LEN, 0)
            horizon = float(ts[-1])
            started = perf_counter()
            run = state.assembler.push_rows(sz, media, ts, max_gap_s=None, horizon=horizon)
            busy["assemble"] += perf_counter() - started
            calls["assemble"] += 1
            rows["assemble"] += len(ts)
            counts["frames"] += len(run.finalized)
            # The engine indexes the run's finalized frames into windows only
            # when the run crosses a window boundary.
            if state.next_close is None:
                state.next_close = origin + (np.floor((float(ts[0]) - origin) / window_s) + 1) * window_s
            if horizon >= state.next_close:
                if run.finalized:
                    ends_at = np.array([frame.end_time for _, frame in run.finalized])
                    started = perf_counter()
                    window_indices(ends_at, origin, window_s)
                    busy["windows"] += perf_counter() - started
                    calls["windows"] += 1
                    rows["windows"] += len(ends_at)
                while horizon >= state.next_close:
                    state.next_close += window_s
        block_ended = perf_counter()
        for key, name in (
            ("mask", "core.media.video_mask"),
            ("assemble", "core.frame_assembly.push_rows"),
            ("windows", "core.streaming.window_indices"),
            ("extend", "core.features.extend"),
            ("features", "core.features.features"),
        ):
            if calls[key]:
                log.add(
                    name, block_started, block_ended, root,
                    busy_s=busy[key], calls=calls[key], rows=rows[key],
                )
        if closed_features:
            started = perf_counter()
            predicted = list(pipeline.ml.predict_many(closed_features, closed_starts))
            log.add("ml.predict_many", started, perf_counter(), root, rows=len(predicted))
    log.rows[root][2] = perf_counter()
    counts["flows"] = len(flows)
    return counts


def scalar_operators_pass(built: WorkloadInput, log: SpanLog) -> dict:
    """The per-packet workload's operator: scalar ``FrameAssembler.push`` per flow."""
    pipeline = built.pipeline
    delta_size, lookback = pipeline.config.resolve_assembly(pipeline.profile)
    packets = built.trace.packets
    codes = built.block.flow_codes.tolist()
    assemblers = [FrameAssembler(delta_size=delta_size, lookback=lookback) for _ in built.block.flows]
    frames = 0
    root = log.add("pass.operators", perf_counter(), 0.0)
    for lo in range(0, len(packets), STRIDE):
        stride = packets[lo : lo + STRIDE]
        stride_codes = codes[lo : lo + STRIDE]
        started = perf_counter()
        for packet, code in zip(stride, stride_codes):
            frames += len(assemblers[code].push(packet))
        log.add("core.frame_assembly.push", started, perf_counter(), root, calls=len(stride))
    log.rows[root][2] = perf_counter()
    return {"frames": frames}


# -- cluster pass: the sharded data plane, stage by stage, in one process ------------


def _copy_into(payload: bytearray):
    def write_into(segment) -> int:
        segment[: len(payload)] = payload
        return len(payload)

    return write_into


def cluster_pass(built: WorkloadInput, log: SpanLog) -> dict:
    pipeline = built.pipeline
    config = pipeline.config
    # Read the facade's defaults off an (unrun) instance, so the replay keeps
    # following them if a later change moves them.
    defaults = make_monitor(built, built.source(), CollectorSink())
    n_shards = defaults.n_workers
    slack_s = DEFAULT_NEW_FLOW_SLACK_WINDOWS * config.window_s
    router = FlowShardRouter(n_shards)
    engines = [StreamingQoEPipeline(pipeline, config=config) for _ in range(n_shards)]
    collector = CollectorSink()
    fan_in = FanInSink(collector, n_shards=n_shards)
    shipped = [float("-inf")] * n_shards
    shard_packets = [0] * n_shards
    shard_busy = [0.0] * n_shards
    shard_blocks: list[list[PacketBlock]] = [[] for _ in range(n_shards)]
    encoded: list[bytearray] = []
    flow_runs = 0
    parent_busy = 0.0
    root = log.add("pass.cluster", perf_counter(), 0.0)

    def timed(name: str, started: float, shard: int | None = None, **fields) -> None:
        nonlocal parent_busy
        ended = perf_counter()
        if shard is None:
            parent_busy += ended - started
        else:
            shard_busy[shard] += ended - started
            fields["shard"] = shard
        log.add(name, started, ended, root, **fields)

    def tick(shard: int, items, low_watermark) -> None:
        """One worker tick's output over the estimate codec into the fan-in."""
        advanced = low_watermark is not None and low_watermark > shipped[shard]
        if not items and not advanced:
            return
        started = perf_counter()
        batch = EstimateBatch.from_estimates(items, low_watermark)
        wire = bytearray(batch.byte_size())
        batch.write_into(wire)
        timed("net.estwire.encode", started, shard, bytes=len(wire), rows=len(items))
        started = perf_counter()
        decoded = EstimateBatch.read_from(wire)
        received = decoded.to_estimates()
        timed("net.estwire.decode", started)
        started = perf_counter()
        fan_in.accept(shard, received, decoded.low_watermark)
        timed("cluster.fanin.accept", started)
        if advanced:
            shipped[shard] = low_watermark

    reader = iter(iter_blocks(built.source(), defaults.chunk_size))
    while True:
        started = perf_counter()
        block = next(reader, None)
        if block is None:
            break
        timed("sources.read", started, rows=len(block))
        started = perf_counter()
        parts = router.partition_block(block)
        timed("cluster.router.partition_block", started, sub_blocks=len(parts))
        for shard, sub_block in parts:
            started = perf_counter()
            wire = bytearray(sub_block.byte_size())
            sub_block.write_into(memoryview(wire))
            timed("net.block.encode", started, bytes=len(wire))
            encoded.append(wire)
            started = perf_counter()
            received = PacketBlock.read_from(wire)
            timed("net.block.decode", started, shard)
            shard_packets[shard] += len(received)
            shard_blocks[shard].append(received)
            flow_runs += len(np.unique(received.flow_codes))
            started = perf_counter()
            emitted = engines[shard].push_block(received)
            timed("cluster.worker.engine", started, shard, rows=len(received))
            started = perf_counter()
            low_watermark = engines[shard].low_watermark(slack_s)
            engines[shard].load_stats()
            timed("cluster.worker.watermark", started, shard)
            tick(shard, emitted, low_watermark)
    for shard, engine in enumerate(engines):
        started = perf_counter()
        tail = engine.flush()
        timed("cluster.worker.engine", started, shard, rows=0)
        tick(shard, tail, None)
        fan_in.finish(shard)
    fan_in.close()

    # The ring alone: pre-encoded sub-blocks through one in-process ring, packed
    # into slots the way the forward batcher packs them.
    ring = BlockRing.create(multiprocessing.get_context("spawn"), defaults.queue_depth, DEFAULT_SLOT_BYTES)
    consumer = ring.handle().attach()  # each side of a ring keeps its own cursor
    try:
        batch: list[bytearray] = []
        cost = 0
        for wire in [*encoded, None]:
            if wire is not None and (not batch or cost + ring.segment_cost(len(wire)) <= ring.slot_bytes):
                batch.append(wire)
                cost += ring.segment_cost(len(wire))
                continue
            if batch:
                payloads = [(len(item), _copy_into(item)) for item in batch]
                started = perf_counter()
                if not ring.try_push_segments(payloads, timeout=5.0):
                    raise RuntimeError("in-process ring refused a slot")
                segments = consumer.pop_segments(timeout=5.0)
                n_segments = len(segments)
                segments = None
                consumer.release()
                timed("cluster.shm.roundtrip", started, segments=n_segments)
            if wire is not None:
                batch = [wire]
                cost = ring.segment_cost(len(wire))
    finally:
        consumer.close()
        ring.close()
        ring.unlink()
    log.rows[root][2] = perf_counter()
    return {
        "items": collector.items,
        "shard_blocks": shard_blocks,
        "shard_skew": max(shard_packets) / (sum(shard_packets) / n_shards),
        "flow_runs": flow_runs,
        "rows": sum(shard_packets),
        "critical_path_s": max(parent_busy, max(shard_busy)),
        "engine_s": [
            sum(
                end - start
                for name, start, end, _, fields in log.rows
                if name == "cluster.worker.engine" and fields["shard"] == shard
            )
            for shard in range(n_shards)
        ],
    }


# -- the traced run --------------------------------------------------------------------

#: Per-layer metrics that are a plain sum over one span name: metric -> (span,
#: what to sum).  ``"busy"`` is seconds inside the calls, ``"calls"`` their
#: number, anything else a span field.  Span names here are recorded by one
#: kind of pass only, so no pass filter is needed.
_SPAN_SUMS = {
    "net.pcap.read_blocks_s": ("net.pcap.read_blocks", "busy"),
    "net.block.slice_s": ("net.block.slice", "busy"),
    "net.block.flow_groups_s": ("net.block.flow_groups", "busy"),
    "net.block.flow_groups_calls": ("net.block.flow_groups", "calls"),
    "net.block.encode_s": ("net.block.encode", "busy"),
    "net.block.decode_s": ("net.block.decode", "busy"),
    "net.block.wire_bytes": ("net.block.encode", "bytes"),
    "core.streaming.push_block_s": ("core.streaming.push_block", "busy"),
    "core.streaming.push_block_calls": ("core.streaming.push_block", "calls"),
    "core.streaming.push_s": ("core.streaming.push", "busy"),
    "core.streaming.push_calls": ("core.streaming.push", "calls"),
    "core.streaming.flush_s": ("core.streaming.flush", "busy"),
    "core.streaming.window_indices_s": ("core.streaming.window_indices", "busy"),
    "core.media.video_mask_s": ("core.media.video_mask", "busy"),
    "core.media.video_mask_calls": ("core.media.video_mask", "calls"),
    "core.frame_assembly.push_rows_s": ("core.frame_assembly.push_rows", "busy"),
    "core.frame_assembly.push_rows_calls": ("core.frame_assembly.push_rows", "calls"),
    "core.frame_assembly.push_s": ("core.frame_assembly.push", "busy"),
    "core.features.extend_s": ("core.features.extend", "busy"),
    "core.features.extend_calls": ("core.features.extend", "calls"),
    "core.features.rows": ("core.features.extend", "rows"),
    "core.features.features_s": ("core.features.features", "busy"),
    "ml.predict_many_s": ("ml.predict_many", "busy"),
    "ml.predict_calls": ("ml.predict_many", "calls"),
    "ml.predict_rows": ("ml.predict_many", "rows"),
    "cluster.router.partition_block_s": ("cluster.router.partition_block", "busy"),
    "cluster.router.partition_calls": ("cluster.router.partition_block", "calls"),
    "cluster.router.sub_blocks": ("cluster.router.partition_block", "sub_blocks"),
    "cluster.shm.roundtrip_s": ("cluster.shm.roundtrip", "busy"),
    "cluster.worker.watermark_s": ("cluster.worker.watermark", "busy"),
    "net.estwire.encode_s": ("net.estwire.encode", "busy"),
    "net.estwire.decode_s": ("net.estwire.decode", "busy"),
    "net.estwire.wire_bytes": ("net.estwire.encode", "bytes"),
    "net.estwire.batches": ("net.estwire.encode", "calls"),
    "cluster.fanin.accept_s": ("cluster.fanin.accept", "busy"),
    "cluster.fanin.accept_calls": ("cluster.fanin.accept", "calls"),
}

#: Operator layers whose replayed time is taken out of the engine's call time.
_OPERATOR_SECONDS = (
    "net.block.flow_groups_s", "core.streaming.window_indices_s", "core.media.video_mask_s",
    "core.frame_assembly.push_rows_s", "core.frame_assembly.push_s", "core.features.extend_s",
    "core.features.features_s", "ml.predict_many_s",
)


def _facade_metrics(built: WorkloadInput, log: SpanLog, facade, untraced, observed) -> dict:
    root = log.first("pass.facade")
    reads = [row for row in log.rows if row[0] == "sources.read" and row[3] == root]
    read_s = sum(end - start for _, start, end, _, _ in reads)
    emits = [row for row in log.rows if row[0] in ("sinks.emit", "sinks.close") and row[3] == root]
    emit_s = sum(end - start for _, start, end, _, _ in emits)
    m = {
        "trace.overhead_share": facade.wall_s / untraced.wall_s - 1.0,
        "obs.overhead_share": observed.wall_s / untraced.wall_s - 1.0,
        "sources.read_s": read_s,
        "sources.blocks": len(reads),
        "sources.rows_per_block_mean": facade.n_packets / len(reads),
        "sinks.emit_s": emit_s,
        "sinks.emits": len(facade.items),
        "monitor.residual_s": facade.wall_s - read_s - emit_s,
    }
    histograms = observed.report.metrics.get("histograms", {})
    for metric in PER_LAYER:
        if metric.name.startswith("obs.stage_s."):
            stage = metric.name.removeprefix("obs.stage_s.")
            m[metric.name] = histograms.get(f'qoe_stage_seconds{{stage="{stage}"}}', {}).get("sum", 0.0)
    if built.workload.pcap:
        m["sinks.bytes_written"] = (built.out_dir / f"{built.workload.name}.jsonl").stat().st_size
    return m


def _source_alone(built: WorkloadInput, log: SpanLog) -> dict:
    """The source's own layer drained with nothing downstream."""
    workload = built.workload
    n = len(built.block)
    if workload.pcap:
        started = perf_counter()
        drained = sum(len(block) for block in PcapReader(built.pcap_path).read_blocks(workload.block_size))
        ended = perf_counter()
        log.add("net.pcap.read_blocks", started, ended, None, rows=drained)
        return {
            "net.pcap.bytes_read": built.pcap_path.stat().st_size,
            "net.pcap.ns_per_packet": (ended - started) / drained * 1e9,
        }
    if workload.engine != "push":
        chunk = workload.block_size or make_monitor(built, built.source(), CollectorSink()).chunk_size
        whole = built.trace.block
        started = perf_counter()
        for lo in range(0, n, chunk):
            _ = whole[lo : lo + chunk]
        log.add("net.block.slice", started, perf_counter(), None, calls=-(-n // chunk))
    return {}


def _cluster_metrics(cluster: dict, untraced) -> dict:
    transport = untraced.report.transport
    forward, reverse = transport.get("forward", {}), transport.get("reverse", {})
    timing = untraced.report.timing
    return {
        "cluster.router.shard_skew": cluster["shard_skew"],
        "cluster.worker.engine_s_max": max(cluster["engine_s"]),
        "cluster.worker.engine_s_sum": sum(cluster["engine_s"]),
        "cluster.worker.flow_runs": cluster["flow_runs"],
        "cluster.worker.rows_per_flow_run_mean": cluster["rows"] / cluster["flow_runs"],
        "cluster.fanin.released": len(cluster["items"]),
        "cluster.shm.fwd_slots_written": forward.get("slots_written", 0),
        "cluster.shm.fwd_segments_per_slot_max": forward.get("max_segments_per_slot", 0),
        "cluster.shm.fwd_occupancy_hwm": forward.get("occupancy_hwm", 0),
        "cluster.shm.rev_slots_written": reverse.get("slots_written", 0),
        "cluster.shm.queue_fallbacks": forward.get("queue_fallbacks", 0) + reverse.get("queue_fallbacks", 0),
        "cluster.monitor.timing_setup_s": timing["setup_s"],
        "cluster.monitor.timing_stream_s": timing["stream_s"],
        "cluster.monitor.timing_drain_s": timing["drain_s"],
        "cluster.monitor.critical_path_s": cluster["critical_path_s"],
        "cluster.monitor.wait_share": 1.0 - cluster["critical_path_s"] / untraced.wall_s,
    }


def _engine_metrics(built: WorkloadInput, log: SpanLog, engine: dict) -> dict:
    root = log.first("pass.engine")
    attributed = sum(end - start for _, start, end, parent, _ in log.rows if parent == root)
    m = {
        "core.streaming.buffered_packets_peak": engine["peak_buffered"],
        "core.streaming.open_windows_peak": engine["peak_open"],
        "monitor.attributed_share": attributed / engine["wall_s"],
    }
    if built.workload.trained:
        batches = [
            row[4]["estimates"] for row in log.rows
            if row[0] == "core.streaming.push_block" and row[4]["estimates"]
        ]
        m["ml.rows_per_call_mean"] = sum(batches) / max(1, len(batches))
    return m


def trace(workload: Workload, seed: int, out_dir: Path, n_packets: int | None = None) -> dict:
    """One traced run of ``workload``: every per-layer metric, and a span file."""
    built = build_input(workload, seed, out_dir, n_packets)
    warm_up(built)
    log = SpanLog(workload.name)
    m = {metric.name: 0.0 for metric in PER_LAYER}

    if workload.sharded:
        run_pass(built)  # the first spawn of a process is cold; keep it out of the baseline
    untraced = run_pass(built)
    facade = facade_pass(built, log)
    observed = run_pass(built, obs=ObsConfig(enabled=True))
    outputs = [facade.items, observed.items]
    m.update(_facade_metrics(built, log, facade, untraced, observed))
    m.update(_source_alone(built, log))

    if workload.sharded:
        cluster = cluster_pass(built, log)
        outputs.append(cluster["items"])
        counts = {"flow_runs": 0, "rows": 0, "frames": 0, "flows": 0}
        for shard, blocks in enumerate(cluster["shard_blocks"]):
            shard_counts = operators_pass(blocks, built, log, f"pass.operators.shard{shard}")
            for key in counts:
                counts[key] += shard_counts[key]
        m.update(_cluster_metrics(cluster, untraced))
        paced = run_pass(built, pace=PACE)
        outputs.append(paced.items)
        m["sources.paced_late_share"] = paced.source.late_share
    else:
        engine = engine_pass(built, log)
        outputs.append(engine["items"])
        if workload.engine == "push":
            counts = scalar_operators_pass(built, log)
            counts.update(flow_runs=len(built.block), rows=len(built.block), flows=engine["flows"])
        else:
            counts = operators_pass(
                iter_blocks(built.source(), workload.block_size), built, log, "pass.operators"
            )
        m.update(_engine_metrics(built, log, engine))

    for name, (span, what) in _SPAN_SUMS.items():
        if what == "busy":
            m[name] = log.busy(span)
        elif what == "calls":
            m[name] = log.calls(span)
        else:
            m[name] = log.total(span, what)
    m["core.streaming.flow_runs"] = counts["flow_runs"]
    m["core.streaming.rows_per_flow_run_mean"] = counts["rows"] / max(1, counts["flow_runs"])
    m["core.streaming.flows"] = counts["flows"]
    m["core.frame_assembly.frames"] = counts["frames"]
    assembler_calls = m["core.frame_assembly.push_rows_calls"]
    if assembler_calls:
        m["core.frame_assembly.rows_per_call_mean"] = (
            log.total("core.frame_assembly.push_rows", "rows") / assembler_calls
        )
        m["core.frame_assembly.us_per_call"] = m["core.frame_assembly.push_rows_s"] / assembler_calls * 1e6
    if not workload.sharded:
        engine_calls_s = (
            m["core.streaming.push_block_s"] + m["core.streaming.push_s"] + m["core.streaming.flush_s"]
        )
        m["core.streaming.self_s"] = engine_calls_s - sum(m[name] for name in _OPERATOR_SECONDS)

    expected = estimate_rows(untraced.items)
    per_pass = max(1, len(expected))
    failed = sum(min(per_pass, count_failed(expected, estimate_rows(items))) for items in outputs)
    if built.pcap_path is not None:
        built.pcap_path.unlink(missing_ok=True)
    span_file = out_dir / f"trace-{workload.name}.jsonl"
    log.write(span_file)
    return {
        "workload": workload.name,
        "seed": seed,
        "per_layer": {name: float(value) for name, value in m.items()},
        "span_file": str(span_file),
        "spans": len(log.rows),
        "attempted": per_pass * len(outputs),
        "failed": failed,
        "correct": failed == 0,
    }
