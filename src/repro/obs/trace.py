"""Ring-buffered request-lifecycle tracer.

A :class:`Tracer` hangs off the simulation environment (``env.tracer``,
``None`` by default) and records one compact tuple per lifecycle event —
a *span event*.  Instrumented call sites across the serving and cluster
layers guard every record with a single ``if tracer is not None`` check,
so a run without a tracer pays one attribute load per site and allocates
nothing.

Span events are plain tuples ``(time, phase, request_id, tenant, device,
aux)`` appended in simulation order, which makes the trace byte-
deterministic for a fixed scenario seed.  The buffer is a bounded
``deque``: when a run outgrows ``capacity`` the *oldest* events drop
first (the tail of a long run is usually what a bottleneck hunt needs)
and :attr:`dropped` counts the loss instead of hiding it.

Span taxonomy (phase strings, in lifecycle order)
-------------------------------------------------
``arrival``        request reached a front-end (aux = workload name)
``admit``          admission controller accepted it; queued from here
``reject``         admission controller (or the cluster edge, device
                   ``CLUSTER_EDGE``) turned it away
``dispatch``       popped from its tenant queue and handed to the backend
``service_begin``  backend accepted the dispatch (aux = kernel tag)
``kernel_begin``   kernel entered the on-device scheduler after the PCIe
                   offload sequence (aux = kernel tag)
``kernel_end``     kernel's final screen finished (aux = kernel tag)
``complete``       front-end recorded the completion
``evict``          queued record evicted from a failing device
``reroute``        evicted record re-queued on ``device`` (aux = the
                   failed source device)
``screen``         one screen execution: request_id carries the kernel
                   tag, tenant the kernel name, aux =
                   ``(lwp_id, begin_time)``; ``time`` is the end time

The *kernel tag* is ``Kernel.instance`` — the request id the serving
kernel factory stamped — not ``Kernel.kernel_id``, which counts up
process-globally and would make two same-seed runs in one process
produce different traces.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterator, Tuple

from .config import DEFAULT_TRACE_CAPACITY

#: One recorded span event.
SpanEvent = Tuple[float, str, int, str, int, Any]

#: All phases a tracer may record, in lifecycle order.
SPAN_PHASES = (
    "arrival", "admit", "reject", "dispatch", "service_begin",
    "kernel_begin", "kernel_end", "complete", "evict", "reroute",
    "screen",
)

#: Pseudo-device for events recorded before routing picked a device
#: (cluster-edge rejections when the whole fleet is out of rotation).
CLUSTER_EDGE = -1


class Tracer:
    """Bounded, append-only span buffer attached to an Environment."""

    __slots__ = ("events", "capacity", "recorded")

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.events: Deque[SpanEvent] = deque(maxlen=capacity)
        self.recorded = 0

    # -- recording (the hot path) -----------------------------------------
    def span(self, time: float, phase: str, request_id: int, tenant: str,
             device: int = 0, aux: Any = None) -> None:
        """Record one span event at simulation time ``time``."""
        self.recorded += 1
        self.events.append((time, phase, request_id, tenant, device, aux))

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[SpanEvent]:
        return iter(self.events)

    @property
    def dropped(self) -> int:
        """Events lost to ring-buffer wraparound."""
        return self.recorded - len(self.events)

    def phase_counts(self) -> Dict[str, int]:
        """Histogram of retained events by phase."""
        counts: Dict[str, int] = {}
        for event in self.events:
            phase = event[1]
            counts[phase] = counts.get(phase, 0) + 1
        return counts

