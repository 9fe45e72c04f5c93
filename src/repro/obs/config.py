"""Observability configuration: what to record and how often.

An :class:`ObsConfig` is the single opt-in knob for the observability
layer (:mod:`repro.obs`): request-lifecycle tracing into a ring-buffered
:class:`~repro.obs.trace.Tracer` and/or periodic sampling of registered
instruments into a :class:`~repro.obs.metrics.MetricsTimeline`.  Like
every other behavioral knob in this repository its plain-dict form
(:meth:`ObsConfig.to_dict`) folds into experiment cache keys — a run
with observability attached carries extra report payload
(the ``metrics`` field) and must never alias a cache entry written
without it.

The contract (see ARCHITECTURE.md, "Observability"):

* **Zero cost when absent.**  No ``ObsConfig`` → no tracer on the
  environment, no instruments, no sampler process; every instrumented
  call site is a single ``is None`` check and reports are byte-identical
  to pre-observability runs.
* **Deterministic when present.**  Tracing and sampling only *read*
  simulation state (the sampler's timeout events shift internal event
  sequence numbers but never reorder the simulation), so the same seed
  produces the same report — and the same byte-identical trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

#: Default ring capacity: ~260k span events (a handful of spans per
#: request, so tens of thousands of requests before the ring wraps).
DEFAULT_TRACE_CAPACITY = 1 << 18

#: Default sampling cadence in simulated seconds.
DEFAULT_CADENCE_S = 0.25


@dataclass(frozen=True)
class ObsConfig:
    """Opt-in observability for one serving or cluster run."""

    tracing: bool = True
    trace_capacity: int = DEFAULT_TRACE_CAPACITY
    metrics: bool = True
    cadence_s: float = DEFAULT_CADENCE_S

    def __post_init__(self) -> None:
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")
        if self.cadence_s <= 0:
            raise ValueError("cadence_s must be positive")

    @property
    def enabled(self) -> bool:
        """True when at least one subsystem is switched on."""
        return self.tracing or self.metrics

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-safe) form; folds into experiment cache keys."""
        return {
            "tracing": self.tracing,
            "trace_capacity": self.trace_capacity,
            "metrics": self.metrics,
            "cadence_s": self.cadence_s,
        }
