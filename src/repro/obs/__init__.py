"""repro.obs: request-lifecycle tracing and the time-series metrics bus.

The observability layer of the reproduction (see ARCHITECTURE.md,
"Observability"): a ring-buffered :class:`Tracer` attached to the
simulation environment records per-request span events across the
serving and cluster layers, a :class:`MetricsBus` samples registered
instruments on a fixed sim-time cadence into a serializable
:class:`MetricsTimeline`, and :func:`to_chrome_trace` exports recorded
traces as Perfetto-loadable Chrome ``trace_event`` JSON.

Everything here is strictly opt-in via :class:`ObsConfig`
(``ServingSession(..., obs=...)`` / ``ClusterSession(..., obs=...)``):
without it no tracer exists, no closures are allocated, and runs are
byte-identical to pre-observability behavior.
"""

from .config import (
    DEFAULT_CADENCE_S,
    DEFAULT_TRACE_CAPACITY,
    ObsConfig,
)
from .export import to_chrome_trace, validate_chrome_trace, write_chrome_trace
from .metrics import (
    Gauge,
    Histogram,
    Instrument,
    MetricsBus,
    MetricsTimeline,
    Rate,
)
from .trace import CLUSTER_EDGE, SPAN_PHASES, SpanEvent, Tracer
from .wire import wire_cluster_metrics, wire_serving_metrics

__all__ = [
    "CLUSTER_EDGE",
    "DEFAULT_CADENCE_S",
    "DEFAULT_TRACE_CAPACITY",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsBus",
    "MetricsTimeline",
    "ObsConfig",
    "Rate",
    "SPAN_PHASES",
    "SpanEvent",
    "Tracer",
    "to_chrome_trace",
    "validate_chrome_trace",
    "wire_cluster_metrics",
    "wire_serving_metrics",
    "write_chrome_trace",
]
