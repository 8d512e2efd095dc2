"""Pluggable estimate consumers for the Source -> Engine -> Sink monitor API.

One base class (:class:`~repro.sinks.base.EstimateSink`: ``emit`` one
estimate, ``close`` at end of stream, ``with``-block support for free;
duck-typed ``emit``/``close`` objects keep working) and five
implementations:

* :class:`~repro.sinks.base.CollectorSink` -- retain everything in memory
  (tests, small offline runs);
* :class:`~repro.sinks.files.JSONLinesSink` / :class:`~repro.sinks.files.CSVSink`
  -- stream flat records to disk, one line per window per flow;
* :class:`~repro.sinks.summary.SummarySink` -- rolling per-flow QoE
  aggregates (running means, degraded-seconds counters);
* :class:`~repro.sinks.summary.MetricsSnapshotSink` -- monotonic counters
  exposed via :meth:`~repro.sinks.summary.MetricsSnapshotSink.metrics` /
  ``render_prometheus`` for scraping.

All sinks other than the collector are O(1) per estimate, preserving the
engine's O(window)-per-flow memory bound end to end.
"""

from repro.sinks.base import CollectorSink, EstimateSink, estimate_as_dict, flow_as_dict
from repro.sinks.files import CSVSink, JSONLinesSink
from repro.sinks.summary import FlowSummary, MetricsSnapshotSink, SummarySink

__all__ = [
    "EstimateSink",
    "CollectorSink",
    "JSONLinesSink",
    "CSVSink",
    "SummarySink",
    "FlowSummary",
    "MetricsSnapshotSink",
    "estimate_as_dict",
    "flow_as_dict",
]
