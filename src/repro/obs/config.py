"""Frozen observability configuration: the on/off switch and the buckets.

:class:`ObsConfig` mirrors the shape of
:class:`~repro.core.config.PipelineConfig` -- a frozen, validated dataclass
that round-trips through ``to_dict``/``from_dict`` so it can cross the
worker process boundary as plain JSON-able data.  The default is
**disabled**: every instrumentation site in the hot path guards on a plain
``obs is not None`` check (the router-overlay idiom), so a monitor that
never asked for telemetry pays one falsy branch per tick and allocates
nothing.

The histogram buckets are part of the config on purpose: fixing the bucket
bounds once, before any process is spawned, is what makes per-worker
histogram snapshots *mergeable* -- the parent can add bucket counts
elementwise because every registry in the fleet quantized with the same
bounds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

__all__ = ["ObsConfig", "DEFAULT_LATENCY_BUCKETS"]

#: Default histogram bounds (seconds), one vector for every histogram of
#: the fleet: sub-100us ring pushes and multi-second migration cuts
#: (wall-clock stage spans) at the low end, and the 0.05-10 s range an
#: operator alarms on for ``qoe_emit_lag_seconds`` (stream time) at the
#: high end.  Prometheus ``le`` semantics: bucket *i* counts observations
#: ``<= bounds[i]``; anything larger lands in the implicit ``+Inf`` bucket.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


@dataclass(frozen=True)
class ObsConfig:
    """Immutable configuration of the telemetry plane.

    Parameters
    ----------
    enabled:
        Master switch.  ``False`` (default) means no registry is created
        and every instrumentation site compiles down to one falsy branch.
    stage_timing:
        When enabled, record per-stage latency spans into the
        ``qoe_stage_seconds`` histogram.  Turning this off keeps the
        counters/gauges but skips the clock reads' histogram inserts --
        useful when only throughput counters are wanted.
    buckets:
        Strictly increasing, positive, finite histogram bucket upper
        bounds (seconds).  Chosen once per deployment; every process in a
        sharded run quantizes with the same bounds so snapshots merge
        exactly.
    """

    enabled: bool = False
    stage_timing: bool = True
    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS

    def __post_init__(self) -> None:
        buckets = tuple(float(b) for b in self.buckets)
        object.__setattr__(self, "buckets", buckets)
        if not buckets:
            raise ValueError("buckets must contain at least one bound")
        previous = 0.0
        for bound in buckets:
            if not math.isfinite(bound) or bound <= 0:
                raise ValueError(f"bucket bounds must be positive and finite, got {bound!r}")
            if bound <= previous and previous != 0.0:
                raise ValueError(f"buckets must be strictly increasing, got {buckets!r}")
            previous = bound

    def replace(self, **changes) -> "ObsConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    # -- persistence / wire format --------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form (crosses the spawn boundary to workers)."""
        data = asdict(self)
        data["buckets"] = list(self.buckets)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ObsConfig":
        """Inverse of :meth:`to_dict` (unknown keys rejected by construction)."""
        data = dict(data)
        if "buckets" in data:
            data["buckets"] = tuple(data["buckets"])
        return cls(**data)
