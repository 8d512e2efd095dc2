"""Ordered fan-in of per-shard estimate streams.

Each shard worker emits estimates in its own emission order; downstream
sinks want *one* stream in a deterministic order.  :class:`FanInSink`
merges the per-shard streams using the same watermark idea the engine uses
for windows: a shard's batches carry a **low watermark** -- a lower bound on
the ``window_start`` of anything it could still emit (see
:meth:`StreamingQoEPipeline.low_watermark
<repro.core.streaming.StreamingQoEPipeline.low_watermark>`) -- and the
fan-in releases a buffered estimate only once *every* live shard's watermark
has passed it.  Released estimates are ordered by ``(window_start,
flow key)``, which is a total, run-independent order (one flow closes each
window at most once), so the merged stream is identical no matter how the
shards' messages interleave.

**Ordering contract.**  The output is globally sorted by ``(window_start,
flow)`` provided every shard honours its watermarks, which holds whenever a
new flow's first packet trails the newest packet its shard has seen by no
more than the slack the shard's watermarks leave.  That slack is the
cross-flow disorder the shard has *measured* so far (see
:mod:`repro.cluster.worker`): zero on a timestamp-sorted source, so a window
is released the moment every live flow of every shard has closed it.  The
measured bound protects against disorder the stream has shown before, not
against its first occurrence: a flow that joins later than anything seen so
far degrades only the *order* of its late estimates, which are still
delivered exactly once, and widens the slack from then on.

With watermarks flowing (the sharded monitor's mode), memory is
O(in-flight window span x flows), not O(run): estimates leave the buffer as
soon as the slowest shard's watermark passes them.  Without watermarks --
including the plain single-stream ``emit`` mode -- everything is buffered
and ordered at :meth:`~FanInSink.close`, which costs O(run) memory like a
:class:`~repro.sinks.base.CollectorSink`.
"""

from __future__ import annotations

import math
from time import perf_counter

from repro.core.streaming import StreamEstimate
from repro.net.flows import FlowKey
from repro.sinks.base import EstimateSink

__all__ = ["FanInSink", "flow_sort_key"]


def flow_sort_key(flow: FlowKey | None) -> tuple:
    """A total order over flow keys (``None`` -- single-flow mode -- first)."""
    if flow is None:
        return (0,)
    return (1, flow.src, flow.src_port, flow.dst, flow.dst_port, flow.protocol)


def _estimate_sort_key(item: StreamEstimate) -> tuple:
    return (item.estimate.window_start, flow_sort_key(item.flow))


class FanInSink(EstimateSink):
    """Merge ``n_shards`` estimate streams into one ordered stream.

    Downstream can be any existing :class:`~repro.sinks.base.EstimateSink`
    (or several); they observe a single monitor-like stream and never learn
    the run was sharded.  The per-shard interface is
    :meth:`accept` (buffer a batch + raise that shard's watermark) and
    :meth:`finish` (shard exhausted); :meth:`close` flushes whatever is left
    in deterministic order and closes the downstream sinks.

    Also usable as a plain single-stream sink (``emit`` maps to shard 0
    with no watermark): the whole stream is buffered and sorted at
    ``close`` -- O(run) memory, like a collector -- which makes an unsharded
    monitor's output order bit-compatible with a sharded one's.
    """

    def __init__(self, sinks=(), n_shards: int = 1, obs=None, window_s: float | None = None) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
        if hasattr(sinks, "emit"):  # a single sink was passed
            sinks = (sinks,)
        self.sinks = tuple(sinks)
        self.n_shards = n_shards
        #: Optional :class:`~repro.obs.registry.MetricsRegistry` for release
        #: spans and counters; releases are identical with or without it.
        self.obs = obs
        #: The emit-lag histogram's inputs (read only when ``obs`` is set):
        #: the engine's window length, and the stream clock -- the newest
        #: packet timestamp the owner has routed to any shard, which the
        #: owner advances.  Each released estimate of a window the clock has
        #: passed observes ``newest_routed - window end`` (stream time) into
        #: ``qoe_emit_lag_seconds``: how late the answer reached the sinks.
        self.window_s = window_s
        self.newest_routed = -math.inf
        self._buffers: list[list[StreamEstimate]] = [[] for _ in range(n_shards)]
        self._watermarks: list[float] = [-math.inf] * n_shards
        self._finished: list[bool] = [False] * n_shards
        self._scanned_threshold = -math.inf
        self.records_released = 0
        self._closed = False

    # -- per-shard input -------------------------------------------------------

    def accept(
        self,
        shard_id: int,
        items: list[StreamEstimate],
        low_watermark: float | None = None,
    ) -> None:
        """Buffer one batch from ``shard_id`` and advance its watermark.

        ``low_watermark`` is the shard's bound on future emissions; ``None``
        leaves the previous bound in place.  Watermarks never move backwards
        (a stale bound cannot un-release anything).

        A batch for a shard already marked :meth:`finish`\\ ed is a protocol
        violation and raises: that shard's watermark is pinned at ``+inf``,
        so a late item would release immediately -- possibly behind
        estimates it should precede -- silently breaking the global
        ``(window_start, flow)`` ordering contract.
        """
        self._check_shard(shard_id)
        if self._finished[shard_id]:
            raise RuntimeError(
                f"shard {shard_id} already finished; a late batch would break "
                "the fan-in's ordering contract"
            )
        self._buffers[shard_id].extend(items)
        if low_watermark is not None and low_watermark > self._watermarks[shard_id]:
            self._watermarks[shard_id] = low_watermark
        new_min = (
            min(item.estimate.window_start for item in items) if items else math.inf
        )
        self._release(new_min)

    def finish(self, shard_id: int) -> None:
        """Mark ``shard_id`` exhausted: it holds back the merge no longer."""
        self._check_shard(shard_id)
        self._finished[shard_id] = True
        self._release()

    def watermark(self, shard_id: int) -> float:
        """The newest low watermark ``shard_id`` reported (``-inf``: none yet)."""
        return self._watermarks[shard_id]

    def emit(self, item: StreamEstimate) -> None:
        """Single-stream sink compatibility: everything arrives on shard 0."""
        self.accept(0, [item])

    def close(self) -> None:
        """Flush remaining buffered estimates (ordered) and close downstream."""
        if self._closed:
            return
        self._closed = True
        self._finished = [True] * self.n_shards
        self._release()
        for sink in self.sinks:
            sink.close()

    # -- internals -------------------------------------------------------------

    def _check_shard(self, shard_id: int) -> None:
        if not 0 <= shard_id < self.n_shards:
            raise ValueError(f"shard_id {shard_id} out of range for {self.n_shards} shards")
        if self._closed:
            raise RuntimeError("FanInSink is closed")

    def _release(self, new_min: float = -math.inf) -> None:
        """Emit every buffered estimate below the global watermark threshold.

        ``new_min`` is the smallest ``window_start`` among the items the
        caller just buffered (``+inf`` for none; the default ``-inf`` forces
        a scan).  When the threshold has not moved since the last scan and
        every new item sits at or above it, the scan is provably a no-op --
        surviving items were already checked, and a shard's new batch is
        bounded below by its previously reported watermark, itself >= the
        unchanged global minimum -- so it is skipped.  That makes
        :meth:`accept` O(batch) instead of O(buffered) in the steady state,
        which matters now that the zero-pickle return path calls it once per
        decoded tick batch.  A watermark-violating source (items *below* the
        threshold) still releases immediately, exactly as before.
        """
        obs = self.obs
        started = perf_counter() if obs is not None else 0.0
        # A finished shard holds nothing back; with none left the bound is +inf.
        threshold = min(
            (mark for mark, done in zip(self._watermarks, self._finished) if not done),
            default=math.inf,
        )
        if threshold == -math.inf:
            return
        if threshold == self._scanned_threshold and new_min >= threshold:
            return
        self._scanned_threshold = threshold
        ready: list[StreamEstimate] = []
        for buffer in self._buffers:
            kept: list[StreamEstimate] = []
            for item in buffer:
                if item.estimate.window_start < threshold:
                    ready.append(item)
                else:
                    kept.append(item)
            buffer[:] = kept
        if not ready:
            return
        ready.sort(key=_estimate_sort_key)
        if obs is None:
            for item in ready:
                for sink in self.sinks:
                    sink.emit(item)
        else:
            emit_started = perf_counter()
            for item in ready:
                for sink in self.sinks:
                    sink.emit(item)
            obs.time_stage("sink_emit", emit_started)
        self.records_released += len(ready)
        if obs is not None:
            obs.time_stage("fanin_release", started)
            obs.inc("qoe_fanin_released_total", len(ready))
            window_s = self.window_s
            if window_s is not None:
                now = self.newest_routed
                for item in ready:
                    lag = now - (item.estimate.window_start + window_s)
                    # Negative: closed by the end-of-capture flush, not by
                    # the stream moving past it -- such a window has no lag.
                    if lag >= 0.0:
                        obs.observe("qoe_emit_lag_seconds", lag)
