"""Aggregating sinks: rolling per-flow QoE summaries and scrape-able counters.

These are the sinks a long-running monitor actually keeps attached: instead
of retaining estimates they fold each one into O(1)-per-flow aggregates --
what an operator dashboard or a Prometheus scrape endpoint wants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.streaming import StreamEstimate
from repro.net.flows import FlowKey

# The registry submodule is imported directly (not the repro.obs package):
# repro.obs.__init__ pulls in the log sink, which imports repro.sinks --
# going through the package here would be a circular import.
from repro.obs.registry import MetricsRegistry
from repro.sinks.base import EstimateSink

__all__ = ["FlowSummary", "SummarySink", "MetricsSnapshotSink"]


@dataclass
class FlowSummary:
    """Rolling QoE aggregates for one flow (running means, no history)."""

    windows: int = 0
    degraded_windows: int = 0
    mean_frame_rate: float = 0.0
    mean_bitrate_kbps: float = 0.0
    mean_frame_jitter_ms: float = 0.0
    min_frame_rate: float = math.inf
    max_frame_jitter_ms: float = 0.0
    first_window_start: float | None = None
    last_window_start: float | None = None
    #: Windows per predicted resolution label (trained pipelines only).
    resolution_counts: dict[str, int] = field(default_factory=dict)

    def update(self, item: StreamEstimate, degraded: bool) -> None:
        estimate = item.estimate
        self.windows += 1
        self.degraded_windows += int(degraded)
        # Running means: numerically stable, no per-window history retained.
        inv = 1.0 / self.windows
        self.mean_frame_rate += (estimate.frame_rate - self.mean_frame_rate) * inv
        self.mean_bitrate_kbps += (estimate.bitrate_kbps - self.mean_bitrate_kbps) * inv
        self.mean_frame_jitter_ms += (estimate.frame_jitter_ms - self.mean_frame_jitter_ms) * inv
        self.min_frame_rate = min(self.min_frame_rate, estimate.frame_rate)
        self.max_frame_jitter_ms = max(self.max_frame_jitter_ms, estimate.frame_jitter_ms)
        if self.first_window_start is None:
            self.first_window_start = estimate.window_start
        self.last_window_start = estimate.window_start
        if estimate.resolution is not None:
            self.resolution_counts[estimate.resolution] = (
                self.resolution_counts.get(estimate.resolution, 0) + 1
            )

    @property
    def degraded_fraction(self) -> float:
        return self.degraded_windows / self.windows if self.windows else 0.0


class _DegradationRule(EstimateSink):
    """Shared degraded-window predicate for the aggregating sinks.

    ``degraded_fps_threshold`` tags windows whose estimated frame rate falls
    below it -- the paper's motivating operator signal; ``degraded_when``
    replaces that rule with an arbitrary per-estimate predicate (e.g. fps
    *or* bitrate floors).
    """

    def __init__(
        self,
        degraded_fps_threshold: float | None = None,
        degraded_when=None,
    ) -> None:
        self.degraded_fps_threshold = degraded_fps_threshold
        self.degraded_when = degraded_when

    def _is_degraded(self, item: StreamEstimate) -> bool:
        if self.degraded_when is not None:
            return bool(self.degraded_when(item.estimate))
        return (
            self.degraded_fps_threshold is not None
            and item.estimate.frame_rate < self.degraded_fps_threshold
        )


class SummarySink(_DegradationRule):
    """Per-flow rolling QoE aggregates (the dashboard view).

    Degraded windows are tagged per :class:`_DegradationRule`, giving each
    flow a degraded-seconds counter.  State is O(live flows), not O(windows).
    """

    def __init__(
        self,
        degraded_fps_threshold: float | None = None,
        degraded_when=None,
    ) -> None:
        super().__init__(degraded_fps_threshold, degraded_when)
        self.flows: dict[FlowKey | None, FlowSummary] = {}
        self.closed = False

    def emit(self, item: StreamEstimate) -> None:
        self.flows.setdefault(item.flow, FlowSummary()).update(item, self._is_degraded(item))

    def close(self) -> None:
        self.closed = True

    def summary(self) -> dict[FlowKey | None, FlowSummary]:
        """The whole ``{flow: FlowSummary}`` map (key ``None`` in single-flow mode)."""
        return dict(self.flows)

    def for_flow(self, flow: FlowKey | None) -> FlowSummary:
        """One flow's aggregates (``flow=None`` for single-flow mode)."""
        if flow not in self.flows:
            raise KeyError(f"no estimates seen for flow {flow}")
        return self.flows[flow]


class MetricsSnapshotSink(_DegradationRule):
    """Monotonic counters and gauges for scraping (Prometheus-style).

    Since PR 8 the sink is a thin recorder over its own
    :class:`~repro.obs.registry.MetricsRegistry` (exposed as
    :attr:`registry`): :meth:`metrics` returns the structured registry
    snapshot and :meth:`render_prometheus` the text exposition -- the same
    formats the monitors' telemetry plane produces, so one scrape handler
    serves both.  Counters never reset, so deltas between scrapes are
    meaningful.  Degraded windows are counted per :class:`_DegradationRule`.
    State is O(live flows) (the flow-key set) plus a handful of series.
    """

    def __init__(
        self,
        degraded_fps_threshold: float | None = None,
        degraded_when=None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(degraded_fps_threshold, degraded_when)
        #: The backing registry; pass one in to share it (e.g. the owning
        #: monitor's), otherwise the sink owns a private one.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._flows: set = set()
        self.closed = False

    def emit(self, item: StreamEstimate) -> None:
        registry = self.registry
        if item.flow not in self._flows:
            self._flows.add(item.flow)
            registry.set_gauge("qoe_flows_seen", len(self._flows))
        registry.inc("qoe_estimates_total")
        registry.inc("qoe_estimates_by_source_total", labels=(("source", item.estimate.source),))
        if self._is_degraded(item):
            registry.inc("qoe_degraded_windows_total")
        last = registry.gauge_value("qoe_last_window_start_seconds")
        if last is None or item.estimate.window_start > last:
            registry.set_gauge("qoe_last_window_start_seconds", item.estimate.window_start)

    def close(self) -> None:
        self.closed = True

    def metrics(self) -> dict:
        """The structured registry snapshot (see ``MetricsRegistry.snapshot``)."""
        return self.registry.snapshot()

    def render_prometheus(self) -> str:
        """The sink's series in the Prometheus text exposition format."""
        return self.registry.render_prometheus()
