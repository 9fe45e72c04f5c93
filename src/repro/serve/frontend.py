"""Multi-tenant serving front-end: queues, admission, dispatcher.

The front-end sits between the open-loop arrival stream and an execution
backend (:mod:`repro.serve.backends`).  Every arriving request passes the
admission controller; admitted requests wait in their tenant's FIFO queue
until the dispatcher — a simulation process woken by arrivals and
completions — hands them to the backend, keeping at most
``backend.capacity`` requests in flight (one per worker LWP on the
accelerator, one total on the strictly serial SIMD baseline).  The order
tenant queues are served in is a pluggable
:class:`~repro.serve.dispatch.DispatchPolicy` (round-robin by default, so
one bursty tenant cannot starve the others at the dispatch point).

A completed request leaves the front-end through one ordered list of
callbacks, :attr:`ServingFrontend.completion_hooks`: the SLO tracker
first, then every admission/dispatch policy that defines
``on_complete(record)``, then whatever the session subscribes (the
cluster's fleet tracker and placement policy, the metrics bus, the
autoscaler window, the parallel runner's epoch buffer).  Each hook
mutates only its own state, so the order never changes a result.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from ..sim.engine import Environment, Event
from .admission import AdmissionController
from .backends import ServingBackend
from .dispatch import DispatchPolicy, RoundRobinDispatch
from .request import Request, RequestRecord, RequestStatus
from .slo import SLOTracker


class ServingFrontend:
    """Per-tenant queues + admission + policy-ordered dispatcher."""

    def __init__(self, env: Environment, backend: ServingBackend,
                 admission: AdmissionController, tracker: SLOTracker,
                 tenants: Sequence[str],
                 dispatch: Optional[DispatchPolicy] = None):
        if not tenants:
            raise ValueError("at least one tenant is required")
        self.env = env
        self.backend = backend
        self.admission = admission
        self.tracker = tracker
        self.dispatch_policy = dispatch if dispatch is not None \
            else RoundRobinDispatch()
        self.dispatch_policy.bind(list(tenants))
        self.queues: Dict[str, Deque[RequestRecord]] = {
            tenant: deque() for tenant in tenants}
        self.records: List[RequestRecord] = []
        self._order = list(tenants)
        self._open = True
        # Total queued requests, maintained incrementally: the dispatch
        # loop re-reads it after every dispatch and completion, and
        # summing the per-tenant deques there is O(tenants) per check —
        # measurably slow for wide tenant sets (see PERFORMANCE.md).
        self._queued_total = 0
        # Optional derating of the backend's dispatch capacity (the
        # cluster layer's slow/failed-device model); None = full capacity.
        self.capacity_limit: Optional[int] = None
        # Observability (repro.obs): the tracer is captured from the
        # environment at construction (sessions attach it before building
        # the front-end) and every span site guards on None, so untraced
        # runs pay a single comparison per arrival/dispatch/completion.
        # ``trace_device`` distinguishes shards in cluster traces.
        self._tracer = env.tracer
        self.trace_device = 0
        # The completion stream: ``hook(record)`` per completed request,
        # in list order.  A static run holds just the tracker.
        self.completion_hooks: List[Callable[[RequestRecord], None]] = [
            tracker.on_completed]
        for policy in (admission, self.dispatch_policy):
            on_complete = getattr(policy, "on_complete", None)
            if on_complete is not None:
                self.completion_hooks.append(on_complete)
        self._wake: Event = env.event()
        self._dispatcher = env.spawn(self._dispatch_loop())

    # ------------------------------------------------------------------ #
    # FrontendView protocol (what admission policies may observe)         #
    # ------------------------------------------------------------------ #
    def queue_depth(self, tenant: str) -> int:
        """Number of requests waiting in ``tenant``'s queue."""
        return len(self.queues[tenant])

    @property
    def total_queued(self) -> int:
        """Requests waiting across all tenant queues (O(1))."""
        return self._queued_total

    @property
    def in_flight(self) -> int:
        """Requests currently executing on the backend."""
        return self.backend.in_flight

    @property
    def dispatch_capacity(self) -> int:
        """Concurrent-dispatch bound (backend capacity, possibly derated)."""
        if self.capacity_limit is None:
            return self.backend.capacity
        return min(self.backend.capacity, self.capacity_limit)

    # ------------------------------------------------------------------ #
    # Arrival side                                                        #
    # ------------------------------------------------------------------ #
    def submit(self, request: Request) -> RequestRecord:
        """Admit-or-reject ``request`` at the current simulation time."""
        if request.tenant not in self.queues:
            raise ValueError(f"unknown tenant {request.tenant!r}")
        record = RequestRecord(request=request)
        self.records.append(record)
        self.tracker.on_offered(request.tenant)
        tracer = self._tracer
        if tracer is not None:
            tracer.span(self.env.now, "arrival", request.request_id,
                        request.tenant, self.trace_device, request.workload)
        if not self.admission.admit(request, self):
            record.status = RequestStatus.REJECTED
            self.tracker.on_rejected(request.tenant)
            if tracer is not None:
                tracer.span(self.env.now, "reject", request.request_id,
                            request.tenant, self.trace_device)
            return record
        record.admitted_at = self.env.now
        self.tracker.on_admitted(request.tenant)
        if tracer is not None:
            tracer.span(self.env.now, "admit", request.request_id,
                        request.tenant, self.trace_device)
        self.queues[request.tenant].append(record)
        self._queued_total += 1
        self._kick()
        return record

    def enqueue_record(self, record: RequestRecord) -> None:
        """Queue an already-admitted record (cluster rerouting path).

        The record keeps its original admission timestamp and is *not*
        re-counted as offered/admitted — it was admitted elsewhere and is
        merely changing queues.  It is also not appended to
        :attr:`records`, which tracks arrivals at this front-end.
        """
        if record.request.tenant not in self.queues:
            raise ValueError(f"unknown tenant {record.request.tenant!r}")
        record.status = RequestStatus.QUEUED
        self.queues[record.request.tenant].append(record)
        self._queued_total += 1
        self._kick()

    def evict_queued(self) -> List[RequestRecord]:
        """Remove and return every queued (not yet dispatched) record.

        Used by the cluster layer when this device fails: the backlog is
        handed back to the dispatcher for rerouting.  In-flight requests
        are untouched (the failing device drains them).
        """
        evicted: List[RequestRecord] = []
        for tenant in self._order:
            queue = self.queues[tenant]
            evicted.extend(queue)
            queue.clear()
        self._queued_total = 0
        return evicted

    def close(self) -> None:
        """No more arrivals: the dispatcher may exit once drained."""
        self._open = False
        self._kick()

    @property
    def drained(self) -> bool:
        """True once closed with empty queues and nothing in flight."""
        return (not self._open and self.total_queued == 0
                and self.backend.in_flight == 0)

    # ------------------------------------------------------------------ #
    # Dispatch side                                                       #
    # ------------------------------------------------------------------ #
    def _kick(self) -> None:
        # Only a parked dispatcher needs waking: with no waiter the wake
        # event would be a no-op heap push/pop, so it is kept for the
        # next park instead (the remaining events keep their order).
        wake = self._wake
        if wake.callbacks:
            self._wake = self.env.event()
            wake.succeed()

    def _pop_next(self) -> RequestRecord:
        """Pop the head of the queue the dispatch policy selects."""
        tenant = self.dispatch_policy.select(self.queues)
        if tenant is None:
            raise RuntimeError("no queued request to pop")
        self._queued_total -= 1
        return self.queues[tenant].popleft()

    def _dispatch_loop(self):
        backend = self.backend
        dispatch = backend.dispatch
        on_complete = self._on_complete
        tracer = self._tracer
        while True:
            while (backend.in_flight < self.dispatch_capacity
                   and self._queued_total > 0):
                record = self._pop_next()
                record.dispatched_at = self.env.now
                record.status = RequestStatus.RUNNING
                if tracer is not None:
                    tracer.span(self.env.now, "dispatch",
                                record.request.request_id,
                                record.request.tenant, self.trace_device)
                dispatch(record, on_complete)
            if self.drained:
                return
            yield self._wake

    def _on_complete(self, record: RequestRecord, now: float) -> None:
        record.completed_at = now
        record.status = RequestStatus.COMPLETED
        for hook in self.completion_hooks:
            hook(record)
        tracer = self._tracer
        if tracer is not None:
            tracer.span(now, "complete", record.request.request_id,
                        record.request.tenant, self.trace_device)
        self._kick()
