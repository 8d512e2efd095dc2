"""The metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per process.  The hot-path API is three
methods -- :meth:`inc`, :meth:`set_gauge`, :meth:`observe` -- each a dict
update keyed by ``(name, labels)`` where ``labels`` is a (small, fixed)
tuple of ``(key, value)`` pairs.  Stage spans use the
:meth:`observe_stage` convenience, which lands every span in the single
``qoe_stage_seconds`` histogram under a ``stage`` label.

Cross-process aggregation rides the sharded monitor's existing
``progress``/``est``/``done`` messages: a worker calls :meth:`delta` at
send time (counter and bucket increments since the last ship, gauges by
value) and the parent folds each delta into its fleet registry with
:meth:`merge`.  Deltas are exact by construction -- :meth:`delta` advances
the shipped baseline in the same step that produces the payload, so the sum
of every delta that reached the parent equals the worker-side totals that
were shipped, no matter how ticks, shards or a mid-run death interleave
(pinned by ``tests/cluster/test_obs_plane.py``).

Histograms share one bucket vector, fixed by :class:`~repro.obs.config.ObsConfig`
before any worker spawns, which is what makes bucket counts mergeable by
elementwise addition.  Merging a delta quantized with a different bucket
count raises instead of corrupting the fleet view.
"""

from __future__ import annotations

from bisect import bisect_left
from time import perf_counter

from repro.obs.config import ObsConfig

__all__ = ["MetricsRegistry", "ingest_transport_stats"]

#: The one stage-span histogram; individual stages are label values, so a
#: scrape sees ``qoe_stage_seconds_bucket{stage="push_block",le="0.001"}``.
STAGE_HISTOGRAM = "qoe_stage_seconds"


#: Transport stats that are high-water marks, not monotonic counts.  They
#: become per-shard gauges (max across shards is meaningful; a summed gauge
#: would not be), while everything else becomes a direction-labelled counter
#: whose fleet-wide sum matches ``MonitorReport.transport`` exactly.
_TRANSPORT_HWM_STATS = frozenset({"max_segments_per_slot", "occupancy_hwm"})


def ingest_transport_stats(
    registry: "MetricsRegistry", stats: dict, direction: str, shard_id: int
) -> None:
    """Mirror one ring's cumulative transport stats into registry series.

    Called exactly once per ring side at end of stream (the stats dicts are
    cumulative, so ingesting them twice would double-count).
    """
    for key, value in stats.items():
        if key in _TRANSPORT_HWM_STATS:
            registry.set_gauge(
                f"qoe_transport_{key}",
                value,
                (("direction", direction), ("shard", str(shard_id))),
            )
        else:
            registry.inc(
                f"qoe_transport_{key}_total", value, (("direction", direction),)
            )


def render_key(key: tuple) -> str:
    """``(name, labels)`` -> the Prometheus series name with a label set."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{label}="{value}"' for label, value in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Counters, gauges and fixed-bucket histograms for one process.

    Not thread-safe by design: every producer in this codebase is a single
    loop (the monitor's routing loop, a worker's tick loop), and the
    cross-process story is delta shipping, not shared mutation.
    """

    def __init__(self, config: ObsConfig | None = None) -> None:
        self.config = config if config is not None else ObsConfig(enabled=True)
        self.buckets: tuple[float, ...] = self.config.buckets
        self.stage_timing = self.config.stage_timing
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._hist_counts: dict[tuple, list[int]] = {}
        self._hist_sums: dict[tuple, float] = {}
        # Shipped baselines for delta(): what has already left this process.
        self._shipped_counters: dict[tuple, float] = {}
        self._shipped_hist_counts: dict[tuple, list[int]] = {}
        self._shipped_hist_sums: dict[tuple, float] = {}

    # -- hot-path recording ----------------------------------------------------

    def inc(self, name: str, value: float = 1, labels: tuple = ()) -> None:
        """Add ``value`` to a (monotonic) counter."""
        key = (name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, labels: tuple = ()) -> None:
        """Set a gauge to its current value (last write wins on merge)."""
        self._gauges[(name, labels)] = value

    def observe(self, name: str, value: float, labels: tuple = ()) -> None:
        """Record one observation into a fixed-bucket histogram."""
        key = (name, labels)
        counts = self._hist_counts.get(key)
        if counts is None:
            counts = self._hist_counts[key] = [0] * (len(self.buckets) + 1)
            self._hist_sums[key] = 0.0
        counts[bisect_left(self.buckets, value)] += 1
        self._hist_sums[key] += value

    def observe_stage(self, stage: str, seconds: float) -> None:
        """One stage-timing span (no-op when ``stage_timing`` is off)."""
        if self.stage_timing:
            self.observe(STAGE_HISTOGRAM, seconds, (("stage", stage),))

    def time_stage(self, stage: str, started: float) -> None:
        """Span helper: record ``perf_counter() - started`` for ``stage``."""
        if self.stage_timing:
            self.observe(STAGE_HISTOGRAM, perf_counter() - started, (("stage", stage),))

    def timed_iter(self, iterable, stage: str):
        """Yield from ``iterable``, recording each ``next()`` as one span.

        Times only the producer side of the loop (e.g. decoding one source
        block), never the loop body, so the spans compose with the
        downstream stages into a full hot-path breakdown.
        """
        iterator = iter(iterable)
        while True:
            started = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            self.time_stage(stage, started)
            yield item

    # -- introspection ---------------------------------------------------------

    def counter_value(self, name: str, labels: tuple = ()) -> float:
        """Current value of a counter (0 if never incremented)."""
        return self._counters.get((name, labels), 0)

    def gauge_value(self, name: str, labels: tuple = ()) -> float | None:
        """Current value of a gauge (``None`` if never set)."""
        return self._gauges.get((name, labels))

    def stage_count(self, stage: str) -> int:
        """Observations recorded for one stage span (0 if none)."""
        counts = self._hist_counts.get((STAGE_HISTOGRAM, (("stage", stage),)))
        return sum(counts) if counts is not None else 0

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """The registry as a deterministic, JSON-able dict.

        Series names are fully rendered (labels inline, Prometheus style)
        and sorted, so two snapshots of equal state are equal objects --
        the interchange format for ``MonitorReport.metrics`` and the
        Prometheus renderer.
        """
        histograms = {}
        for key in sorted(self._hist_counts, key=render_key):
            counts = self._hist_counts[key]
            histograms[render_key(key)] = {
                "counts": list(counts),
                "sum": self._hist_sums[key],
                "count": sum(counts),
            }
        return {
            "buckets": list(self.buckets),
            "counters": {
                render_key(key): self._counters[key]
                for key in sorted(self._counters, key=render_key)
            },
            "gauges": {
                render_key(key): self._gauges[key]
                for key in sorted(self._gauges, key=render_key)
            },
            "histograms": histograms,
        }

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        from repro.obs.render import render_prometheus

        return render_prometheus(self.snapshot())

    # -- cross-process aggregation ---------------------------------------------

    def delta(self) -> dict | None:
        """Everything recorded since the last ``delta()``, or ``None``.

        Counters and histogram buckets ship as increments (and the shipped
        baseline advances atomically with the payload -- what is returned
        is exactly what stops being pending); gauges ship by value.  The
        caller attaches the result to an outbound message *it is about to
        send*: computing a delta and then dropping it loses those
        increments, which is precisely the contract -- a delta represents
        shipped state.
        """
        counters: dict[tuple, float] = {}
        for key, value in self._counters.items():
            shipped = self._shipped_counters.get(key, 0)
            if value != shipped:
                counters[key] = value - shipped
                self._shipped_counters[key] = value
        histograms: dict[tuple, tuple[list[int], float]] = {}
        for key, counts in self._hist_counts.items():
            shipped_counts = self._shipped_hist_counts.get(key)
            if shipped_counts is None:
                shipped_counts = [0] * len(counts)
            if counts != shipped_counts:
                histograms[key] = (
                    [c - s for c, s in zip(counts, shipped_counts)],
                    self._hist_sums[key] - self._shipped_hist_sums.get(key, 0.0),
                )
                self._shipped_hist_counts[key] = list(counts)
                self._shipped_hist_sums[key] = self._hist_sums[key]
        if not counters and not histograms and not self._gauges:
            return None
        delta: dict = {"n_buckets": len(self.buckets)}
        if counters:
            delta["counters"] = counters
        if histograms:
            delta["histograms"] = histograms
        if self._gauges:
            delta["gauges"] = dict(self._gauges)
        return delta

    def merge(self, delta: dict) -> None:
        """Fold one :meth:`delta` payload into this registry.

        Counter and bucket increments add; gauges overwrite.  Bucket-count
        mismatches raise -- a worker quantizing with different bounds would
        silently corrupt every percentile read off the merged histogram.
        """
        n_buckets = delta.get("n_buckets")
        if n_buckets is not None and n_buckets != len(self.buckets):
            raise ValueError(
                f"cannot merge a delta quantized with {n_buckets} buckets "
                f"into a registry with {len(self.buckets)}"
            )
        for key, value in delta.get("counters", {}).items():
            self._counters[key] = self._counters.get(key, 0) + value
        for key, (counts, total) in delta.get("histograms", {}).items():
            mine = self._hist_counts.get(key)
            if mine is None:
                mine = self._hist_counts[key] = [0] * (len(self.buckets) + 1)
                self._hist_sums[key] = 0.0
            if len(counts) != len(mine):
                raise ValueError(
                    f"histogram {render_key(key)!r}: delta has {len(counts)} buckets, "
                    f"registry has {len(mine)}"
                )
            for i, count in enumerate(counts):
                mine[i] += count
            self._hist_sums[key] += total
        for key, value in delta.get("gauges", {}).items():
            self._gauges[key] = value
