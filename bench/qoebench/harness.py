"""End-to-end measurement: inputs, the two thin proxies, timed passes, checking.

A *pass* is one complete ``monitor.run()`` of a workload's real facade at its
default settings.  The only bench code inside a timed pass is a source proxy
(remembers the newest timestamp handed out and when the first read happened;
lets the host-speed probe run at most every 50 ms) and a sink proxy (remembers
one stream-time stamp per estimate and when ``close()`` returned).  Everything
else -- repeating passes, medians, the reference computation -- happens around
the passes.
"""

from __future__ import annotations

import gc
import resource
import signal
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from time import perf_counter

import numpy as np

from qoebench.gen import build_block, fit_pipeline, input_digest
from qoebench.spec import END_TO_END, PACE, PACED_LATE_S, Workload
from repro.cluster import ShardedQoEMonitor, flow_sort_key
from repro.core.pipeline import QoEPipeline
from repro.core.streaming import StreamingQoEPipeline
from repro.monitor import QoEMonitor
from repro.net.block import PacketBlock
from repro.net.pcap import write_pcap
from repro.net.trace import PacketTrace
from repro.sinks import CollectorSink, JSONLinesSink
from repro.sources import PcapSource, TraceSource

#: Unpaced passes per run, at least; more are taken until ``--seconds`` is used.
MIN_PASSES = 3
#: A pass that takes longer than this fails all of its operations.
PASS_TIMEOUT_S = 120
#: Flows of the per-packet workload re-run alone through a fresh engine.
PUSH_CHECK_FLOWS = 16


# -- the host-speed probe -----------------------------------------------------------

#: What :func:`_probe_kernel` takes on the reference container when nothing
#: competes for the core.  Times are reported *at this speed*: a pass whose
#: probes averaged twice this is credited half its wall and CPU time.
REFERENCE_PROBE_S = 0.0012
#: Least wall time between two probes inside a pass.
PROBE_EVERY_S = 0.05
#: Probes taken just before and just after work that cannot be probed from inside.
BRACKET_PROBES = 16

_PROBE_ARRAY = np.arange(2048, dtype=np.float64)
_PROBE_SEGMENTS = np.arange(0, 1598, 8)


def _probe_kernel() -> None:
    """A fixed ~1-2 ms of interpreter work shaped like the monitor's own:
    small-object allocation, dict updates, and short NumPy calls."""
    table = {}
    for i in range(5000):
        table[i & 255] = (i, float(i), [i])
    for _ in range(60):
        kept = _PROBE_ARRAY[_PROBE_ARRAY >= 450.0]
        np.add.reduceat(kept, _PROBE_SEGMENTS)
        np.argsort(kept[:256], kind="stable")


class SpeedProbe:
    """Samples how fast the host runs *while* a pass is running.

    The container this benchmark lives in does not hold its speed (the same
    work takes 1.0x to 1.6x as long from one second to the next, CPU time
    stretching with wall time), which no amount of repetition inside a run
    averages away.  The proxies therefore call :meth:`tick` from inside the
    pass; at most every ``PROBE_EVERY_S`` it times the fixed kernel.  The
    time spent probing is taken out of the pass, and the pass's wall and CPU
    time are divided by :attr:`slowdown` -- the mean probe time over the
    reference probe time -- so they read as if the host had run at reference
    speed throughout.  Raw values are kept and printed beside them.

    A probe times the core it runs on, so it must run where the work runs.
    The sharded monitor works in its worker process while this one mostly
    sleeps, and a probe fired from a process just woken reads slow for that
    reason alone: there the pass is bracketed with :meth:`sample` instead.
    """

    def __init__(self, ticking: bool = True) -> None:
        #: False: :meth:`tick` does nothing and only :meth:`sample` probes.
        self.ticking = ticking
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._next = 0.0

    def tick(self) -> None:
        if not self.ticking:
            return
        started = perf_counter()
        if started < self._next:
            return
        self._probe(started)

    def _probe(self, started: float) -> None:
        # No collection inside the probe: how long one takes depends on the
        # monitor's heap, and the probe is to time the host, not the heap.
        collecting = gc.isenabled()
        gc.disable()
        _probe_kernel()
        if collecting:
            gc.enable()
        ended = perf_counter()
        self.samples.append(ended - started)
        self.spent_s += ended - started
        self._next = ended + PROBE_EVERY_S

    def sample(self, n: int) -> None:
        """``n`` back-to-back probes (around work that has no proxy to tick from)."""
        for _ in range(n):
            self._probe(perf_counter())

    @property
    def slowdown(self) -> float:
        """Probe time over reference probe time (1.0 when nothing was sampled).

        Ticks are spread evenly over a pass, so their mean weighs a slow spell
        by how long it lasted; bracket samples are a handful of back-to-back
        readings, where one hiccup must not speak for the whole pass.
        """
        if not self.samples:
            return 1.0
        typical = statistics.fmean(self.samples) if self.ticking else statistics.median(self.samples)
        return typical / REFERENCE_PROBE_S


# -- stream clocks and the two proxies ---------------------------------------------


class ReadClock:
    """Stream time of an unpaced pass: the newest timestamp the source handed out."""

    def __init__(self) -> None:
        self.newest = 0.0

    def now(self) -> float:
        return self.newest


class PacedClock:
    """Stream time of an open-loop pass: where the pacing schedule is *now*.

    Lag is then timed from when a packet was due, not from when a stalled
    monitor got round to reading it, and keeps running while the fleet drains.
    """

    def __init__(self, pace: float, wall_clock=perf_counter) -> None:
        self.pace = pace
        self._wall_clock = wall_clock
        self._first_ts = 0.0
        self._t0 = 0.0

    def start(self, first_ts: float, wall: float) -> None:
        self._first_ts = first_ts
        self._t0 = wall

    def due(self, timestamp: float) -> float:
        """Wall time at which a packet stamped ``timestamp`` is released."""
        return self._t0 + (timestamp - self._first_ts) / self.pace

    def now(self) -> float:
        return self._first_ts + (self._wall_clock() - self._t0) * self.pace


class TimedSource:
    """Source proxy: first-read wall time and the newest timestamp handed out."""

    def __init__(self, inner, clock, probe: SpeedProbe) -> None:
        self.inner = inner
        self.clock = clock
        self.probe = probe
        self.first_read: float | None = None
        self.n_packets = 0
        self.last_ts = 0.0

    def __iter__(self):
        clock = self.clock
        tick = self.probe.tick
        self.first_read = perf_counter()
        n = 0
        timestamp = 0.0
        for packet in self.inner:
            timestamp = packet.timestamp
            clock.newest = timestamp
            n += 1
            if not n & 1023:
                tick()
            yield packet
        self.n_packets = n
        self.last_ts = timestamp

    def blocks(self, chunk_size: int):
        clock = self.clock
        self.first_read = perf_counter()
        for block in self.inner.blocks(chunk_size):
            self.last_ts = clock.newest = float(block.timestamps[-1])
            self.n_packets += len(block)
            self.probe.tick()
            yield block


class PacedSource(TimedSource):
    """Open-loop source proxy: releases each chunk when its last packet is due.

    Never waits for the monitor -- it is pulled by the monitor's own loop, so a
    monitor that falls behind simply finds the next chunk overdue -- and records
    how late each chunk left (``late_s``).  A chunk is never released early.
    """

    def __init__(
        self, inner, clock: PacedClock, probe: SpeedProbe, wall_clock=perf_counter, sleep=time.sleep
    ) -> None:
        super().__init__(inner, clock, probe)
        self._wall_clock = wall_clock
        self._sleep = sleep
        self.late_s: list[float] = []

    def blocks(self, chunk_size: int):
        clock = self.clock
        wall_clock = self._wall_clock
        started = False
        for block in self.inner.blocks(chunk_size):
            if not started:
                self.first_read = wall_clock()
                clock.start(float(block.timestamps[0]), self.first_read)
                started = True
            self.last_ts = float(block.timestamps[-1])
            due = clock.due(self.last_ts)
            now = wall_clock()
            while now < due:
                self._sleep(due - now)
                now = wall_clock()
            self.late_s.append(now - due)
            self.n_packets += len(block)
            yield block

    @property
    def late_share(self) -> float:
        if not self.late_s:
            return 0.0
        return sum(1 for late in self.late_s if late > PACED_LATE_S) / len(self.late_s)


class LagSink:
    """Sink proxy: one ``(window_start, stream time)`` stamp per estimate."""

    def __init__(self, inner, clock) -> None:
        self.inner = inner
        self.clock = clock
        self.items: list = []
        self.stamps: list[tuple[float, float]] = []
        self.closed_at: float | None = None

    def emit(self, item) -> None:
        self.inner.emit(item)
        self.items.append(item)
        self.stamps.append((item.estimate.window_start, self.clock.now()))

    def close(self) -> None:
        self.inner.close()
        self.closed_at = perf_counter()


def emit_lags(stamps: list[tuple[float, float]], window_s: float, last_ts: float) -> list[float]:
    """Lag samples of the complete windows among ``stamps``.

    A window that ends after the capture's last packet was closed by the
    end-of-capture flush, not by the stream moving past it; it has no lag.
    """
    return [now - (start + window_s) for start, now in stamps if start + window_s <= last_ts]


def percentile(samples: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(samples)
    return ordered[max(0, ceil(share * len(ordered)) - 1)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0], values[0], values[0])
    return tuple(statistics.quantiles(values, n=4))


# -- inputs ------------------------------------------------------------------------


@dataclass
class WorkloadInput:
    workload: Workload
    seed: int
    block: PacketBlock
    trace: PacketTrace
    pipeline: QoEPipeline
    out_dir: Path
    pcap_path: Path | None
    build_s: float

    @property
    def digest(self) -> str:
        return input_digest(self.block)

    def source(self):
        """A fresh source of the kind the workload reads from."""
        if self.pcap_path is not None:
            return PcapSource(self.pcap_path)
        return TraceSource(self.trace)

    def sink(self):
        """A fresh sink of the kind the workload writes to."""
        if self.workload.pcap:
            return JSONLinesSink(self.out_dir / f"{self.workload.name}.jsonl")
        return CollectorSink()


def build_input(
    workload: Workload, seed: int, out_dir: Path, n_packets: int | None = None, probe: SpeedProbe | None = None
) -> WorkloadInput:
    """Construct everything a pass needs before the monitor exists (timed).

    ``probe`` is sampled before, between and after the stages; the time that
    takes is not part of ``build_s``.
    """
    probe = probe if probe is not None else SpeedProbe()
    started = perf_counter()
    probe.sample(BRACKET_PROBES // 2)
    block = build_block(workload.n_flows, n_packets or workload.n_packets, seed)
    trace = PacketTrace.from_block(block)
    probe.sample(BRACKET_PROBES // 2)
    pcap_path = None
    if workload.pcap:
        pcap_path = out_dir / f"{workload.name}.pcap"
        write_pcap(pcap_path, block.to_packets())
    elif workload.engine == "push":
        # The per-packet loop iterates Packet objects; building them is input
        # construction, not monitoring.
        len(trace.packets)
    probe.sample(BRACKET_PROBES // 2)
    pipeline = fit_pipeline(seed) if workload.trained else QoEPipeline.for_vca("teams")
    probe.sample(BRACKET_PROBES // 2)
    build_s = perf_counter() - started - probe.spent_s
    return WorkloadInput(workload, seed, block, trace, pipeline, out_dir, pcap_path, build_s)


def build_repeatedly(workload: Workload, seed: int, out_dir: Path, n_packets: int | None = None):
    """Build the input 3-5 times (set-up is a metric).

    Returns the last input and, per build, ``(seconds, seconds at reference
    speed)``.
    """
    times: list[tuple[float, float]] = []
    while True:
        probe = SpeedProbe()
        built = build_input(workload, seed, out_dir, n_packets, probe)
        times.append((built.build_s, built.build_s / probe.slowdown))
        if len(times) >= 5 or (len(times) >= 3 and sum(raw for raw, _ in times) >= 3.0):
            return built, times


def warm_up(built: WorkloadInput) -> None:
    """One untimed block through a throw-away engine (lazy imports, NumPy set-up)."""
    engine = StreamingQoEPipeline(built.pipeline)
    engine.push_block(built.block[:1024])
    engine.flush()


# -- passes ------------------------------------------------------------------------


class PassTimeout(Exception):
    pass


@contextmanager
def deadline(seconds: int):
    """Raise :class:`PassTimeout` in the main thread after ``seconds``."""

    def on_alarm(signum, frame):
        raise PassTimeout(f"pass exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def cpu_seconds() -> float:
    """User+sys CPU of this process and of every child reaped so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


@dataclass
class PassResult:
    #: First source read to sink closed, and CPU of the process and its reaped
    #: workers over the pass -- both as measured, less the time spent probing.
    wall_s: float
    cpu_s: float
    #: Mean in-pass probe time over the reference probe time (1.0 = reference speed).
    slowdown: float
    #: Monitor construction + ``run()`` entry to the first source read.
    entry_s: float
    n_packets: int
    last_ts: float
    items: list
    stamps: list
    report: object
    source: object
    sink: object


def make_monitor(built: WorkloadInput, source, sinks, obs=None):
    """The workload's real facade at its default settings."""
    workload = built.workload
    if workload.sharded:
        return ShardedQoEMonitor(
            built.pipeline, source, sinks, n_workers=workload.n_workers, transport="shm", obs=obs
        )
    return QoEMonitor(built.pipeline, source, sinks, block_size=workload.block_size, obs=obs)


def run_pass(
    built: WorkloadInput,
    pace: float | None = None,
    obs=None,
    wrap_source=TimedSource,
    wrap_sink=LagSink,
) -> PassResult:
    """One complete ``monitor.run()`` behind the source and sink proxies."""
    workload = built.workload
    probe = SpeedProbe(ticking=not workload.sharded)
    if workload.sharded:
        probe.sample(BRACKET_PROBES)
    outside_s = probe.spent_s
    if pace is not None:
        clock = PacedClock(pace)
        source = PacedSource(built.source(), clock, probe)
    else:
        clock = ReadClock()
        source = wrap_source(built.source(), clock, probe)
    sink = wrap_sink(built.sink(), clock)
    cpu_before = cpu_seconds()
    constructed = perf_counter()
    monitor = make_monitor(built, source, sink, obs)
    with deadline(PASS_TIMEOUT_S):
        report = monitor.run()
    cpu_s = cpu_seconds() - cpu_before
    in_pass_s = probe.spent_s - outside_s
    if workload.sharded:
        probe.sample(BRACKET_PROBES)
    return PassResult(
        wall_s=sink.closed_at - source.first_read - in_pass_s,
        cpu_s=cpu_s - in_pass_s,
        slowdown=probe.slowdown,
        entry_s=source.first_read - constructed,
        n_packets=source.n_packets,
        last_ts=source.last_ts,
        items=sink.items,
        stamps=sink.stamps,
        report=report,
        source=source,
        sink=sink,
    )


# -- checking ----------------------------------------------------------------------


def estimate_rows(items) -> list[tuple]:
    """Estimates as comparable tuples; floats by bit pattern, so NaN == NaN."""
    rows = []
    for item in items:
        e = item.estimate
        rows.append(
            (
                item.flow,
                e.window_start,
                float(e.frame_rate).hex(),
                float(e.bitrate_kbps).hex(),
                float(e.frame_jitter_ms).hex(),
                e.resolution,
                e.source,
            )
        )
    return rows


def fan_in_order(rows: list[tuple]) -> list[tuple]:
    """Emission-order rows re-sorted into the sharded monitor's contract order."""
    return sorted(rows, key=lambda row: (row[1], flow_sort_key(row[0])))


def reference_rows(built: WorkloadInput) -> list[tuple]:
    """Per-packet ``QoEMonitor`` over the same kind of source: the oracle."""
    sink = CollectorSink()
    QoEMonitor(built.pipeline, built.source(), sink).run()
    rows = estimate_rows(sink.items)
    return fan_in_order(rows) if built.workload.sharded else rows


def count_failed(expected: list[tuple], got: list[tuple]) -> int:
    """Expected estimates that are missing, different or out of place, plus extras."""
    if got == expected:
        return 0
    shared = min(len(expected), len(got))
    wrong = sum(1 for i in range(shared) if expected[i] != got[i])
    return wrong + abs(len(expected) - len(got))


def sampled_flow_rows(built: WorkloadInput) -> dict:
    """The per-packet workload's oracle: a seeded sample of flows, each run
    alone through a fresh engine; ``{flow: its estimate rows}``."""
    block = built.block
    rng = np.random.default_rng([built.seed, len(block.flows)])
    sample = rng.choice(len(block.flows), size=min(PUSH_CHECK_FLOWS, len(block.flows)), replace=False)
    engines = {code: StreamingQoEPipeline(built.pipeline) for code in sample.tolist()}
    alone: dict = {code: [] for code in engines}
    for packet, code in zip(built.trace.packets, block.flow_codes.tolist()):
        engine = engines.get(code)
        if engine is not None:
            alone[code].extend(engine.push(packet))
    for code, engine in engines.items():
        alone[code].extend(engine.flush())
    return {block.flows[code]: estimate_rows(items) for code, items in alone.items()}


def check_push(alone: dict, items) -> tuple[int, int]:
    """``(attempted, failed)`` for one pass of the per-packet workload.

    Its own path *is* the oracle of the other workloads, so it is checked
    differently: every flow's windows must come out strictly increasing, and
    the sampled flows must reproduce what they emit when run alone.
    """
    by_flow: dict = {}
    for row in estimate_rows(items):
        by_flow.setdefault(row[0], []).append(row)
    failed = 0
    for rows in by_flow.values():
        failed += sum(1 for a, b in zip(rows, rows[1:]) if not b[1] > a[1])
    for flow, expected in alone.items():
        failed += count_failed(expected, by_flow.get(flow, []))
    attempted = max(1, len(items))
    return attempted, min(failed, attempted)


def check_passes(built: WorkloadInput, results: list, crashed: int) -> tuple[int, int]:
    """``(attempted, failed)`` over every pass of a run, crashed ones included."""
    if built.workload.engine == "push":
        alone = sampled_flow_rows(built)
        counts = [check_push(alone, result.items) for result in results]
    else:
        expected = reference_rows(built)
        n = max(1, len(expected))
        counts = [(n, min(n, count_failed(expected, estimate_rows(result.items)))) for result in results]
    attempted = sum(a for a, _ in counts)
    failed = sum(f for _, f in counts)
    # A pass that raised or timed out fails as many operations as a pass attempts.
    lost = crashed * (attempted // len(counts) if counts else 1)
    return max(1, attempted + lost), failed + lost


# -- one measured run ----------------------------------------------------------------


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    out_dir: Path,
    n_packets: int | None = None,
    min_passes: int = MIN_PASSES,
) -> dict:
    """Build the input, take unpaced passes for ``seconds``, check, summarize."""
    built, build_times = build_repeatedly(workload, seed, out_dir, n_packets)
    warm_up(built)
    duration_s = float(built.block.timestamps[-1] - built.block.timestamps[0])
    passes: list[PassResult] = []
    crashed = 0
    started = perf_counter()
    while len(passes) + crashed < min_passes or perf_counter() - started < seconds:
        try:
            passes.append(run_pass(built))
        except Exception:
            traceback.print_exc()
            crashed += 1
            if crashed >= min_passes:
                break
    paced = None
    if workload.sharded and passes:
        try:
            paced = run_pass(built, pace=PACE)
        except Exception:
            traceback.print_exc()
            crashed += 1
    rss_mb = peak_rss_mb()

    # The oracle runs after the RSS reading so its packet objects are not in it.
    attempted, failed = check_passes(built, passes + ([paced] if paced is not None else []), crashed)
    if built.pcap_path is not None:
        built.pcap_path.unlink(missing_ok=True)

    summary = {
        "workload": workload.name,
        "seed": seed,
        "digest": built.digest,
        "n_packets": len(built.block),
        "n_flows": len(built.block.flows),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and bool(passes),
        "end_to_end": {},
    }
    if not passes:
        return summary
    lag_pass = paced if paced is not None else passes[-1]
    window_s = built.pipeline.config.window_s
    lags = emit_lags(lag_pass.stamps, window_s, lag_pass.last_ts)
    build_raw = statistics.median(raw for raw, _ in build_times)
    build_ref = statistics.median(ref for _, ref in build_times)

    def over_passes(pairs: list[tuple[float, float]]) -> dict:
        """A per-pass metric, given per pass as (as measured, at reference speed)."""
        each = [ref for _, ref in pairs]
        q1, q2, q3 = quartiles(each)
        as_measured = statistics.median(raw for raw, _ in pairs)
        return {"value": q2, "q1": q1, "q3": q3, "n": len(each), "passes": each, "as_measured": as_measured}

    nan = float("nan")
    entries = {
        "wall_pps": over_passes([(p.n_packets / p.wall_s, p.n_packets / p.wall_s * p.slowdown) for p in passes]),
        "cpu_s_per_mpkt": over_passes(
            [(p.cpu_s / p.n_packets * 1e6, p.cpu_s / p.n_packets * 1e6 / p.slowdown) for p in passes]
        ),
        "emit_lag_s_p50": {"value": percentile(lags, 0.50) if lags else nan, "n": len(lags)},
        "emit_lag_s_p99": {"value": percentile(lags, 0.99) if lags else nan, "n": len(lags)},
        "peak_rss_mb": {"value": rss_mb, "n": 1},
        "setup_s": over_passes([(build_raw + p.entry_s, build_ref + p.entry_s / p.slowdown) for p in passes]),
    }
    summary["end_to_end"] = {m.name: {**entries[m.name], "unit": m.unit} for m in END_TO_END}
    summary["slowdown"] = [p.slowdown for p in passes]
    summary["lag_samples"] = len(lags)
    summary["build_s"] = [raw for raw, _ in build_times]
    if paced is not None:
        summary["paced"] = {
            "pace": PACE,
            "offered_pps": paced.n_packets / (duration_s / PACE),
            "late_share": paced.source.late_share,
            "wall_s": paced.wall_s,
        }
    return summary
