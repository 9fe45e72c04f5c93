"""Admission control for the multi-tenant serving front-end.

Open-loop traffic does not slow down when the accelerator saturates, so an
unchecked front-end grows unbounded queues and every request eventually
misses its deadline.  The admission controller decides, at arrival time,
whether a request may enter its tenant queue:

* :class:`AlwaysAdmit` — no control (the pure open-loop baseline).
* :class:`QueueDepthAdmission` — reject when the tenant's queue (or the
  whole front-end backlog) exceeds a depth bound.
* :class:`DeadlineAwareAdmission` — estimate the queueing delay from the
  current backlog and an EWMA of observed service times, and reject
  requests that would already miss their SLO at dispatch time.
* :class:`TokenBucketAdmission` — classic rate limiter: admit while the
  bucket has tokens, refilled at a fixed rate up to a burst bound.

Every policy registers itself in the unified registry
(:mod:`repro.policy`) under the ``admission`` domain, so a scenario picks
one declaratively via a :class:`~repro.policy.PolicySpec` (name +
params).
"""

from __future__ import annotations

from typing import Optional, Protocol

from ..policy import register_policy
from .request import Request, RequestRecord


class FrontendView(Protocol):
    """What an admission policy may observe about the front-end."""

    def queue_depth(self, tenant: str) -> int: ...
    @property
    def total_queued(self) -> int: ...
    @property
    def in_flight(self) -> int: ...
    @property
    def dispatch_capacity(self) -> int: ...


class AdmissionController:
    """Base policy: admit everything, learn nothing.

    A policy that learns from completions defines ``on_complete(record)``;
    the front-end subscribes it to its completion stream.
    """

    name = "none"

    def admit(self, request: Request, frontend: FrontendView) -> bool:
        """Decide at arrival time whether ``request`` may enqueue."""
        return True


@register_policy("admission")
class AlwaysAdmit(AdmissionController):
    """The pure open-loop front-end: queues are unbounded."""

    name = "none"


@register_policy("admission")
class QueueDepthAdmission(AdmissionController):
    """Bound per-tenant queue depth (and optionally the total backlog)."""

    name = "queue_depth"

    def __init__(self, max_tenant_depth: int = 64,
                 max_total_depth: Optional[int] = None):
        if max_tenant_depth < 1:
            raise ValueError("max_tenant_depth must be >= 1")
        if max_total_depth is not None and max_total_depth < 1:
            raise ValueError("max_total_depth must be >= 1")
        self.max_tenant_depth = max_tenant_depth
        self.max_total_depth = max_total_depth

    def admit(self, request: Request, frontend: FrontendView) -> bool:
        """Admit while the tenant (and total) backlog is under bound."""
        if frontend.queue_depth(request.tenant) >= self.max_tenant_depth:
            return False
        if self.max_total_depth is not None \
                and frontend.total_queued >= self.max_total_depth:
            return False
        return True


@register_policy("admission")
class DeadlineAwareAdmission(AdmissionController):
    """Reject requests whose estimated completion already misses the SLO.

    The wait estimate assumes the backlog ahead of the request (queued
    plus in-flight work) drains at ``dispatch_capacity`` concurrent
    requests, each taking the EWMA service time; the request itself then
    needs one more service time.  Requests without an SLO are admitted
    (subject to the optional backstop depth bound).

    Until the EWMA has a sample the estimator is blind, so the cold-start
    window is bounded instead of open: seed the estimate via
    ``initial_service_s`` (e.g. the platform's nominal service time) to
    make the deadline test live from the first arrival, or leave it unset
    and the policy bootstraps from the first completion while admitting
    at most ``cold_start_waves`` dispatch waves of backlog — an open-loop
    burst before the first completion can no longer flood the queue
    unchecked.
    """

    name = "deadline"

    def __init__(self, ewma_alpha: float = 0.2,
                 initial_service_s: float = 0.0,
                 slack_factor: float = 1.0,
                 backstop_depth: Optional[int] = None,
                 cold_start_waves: float = 2.0):
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if slack_factor <= 0:
            raise ValueError("slack_factor must be positive")
        if cold_start_waves <= 0:
            raise ValueError("cold_start_waves must be positive")
        self.ewma_alpha = ewma_alpha
        self.service_estimate_s = initial_service_s
        self.slack_factor = slack_factor
        self.backstop_depth = backstop_depth
        self.cold_start_waves = cold_start_waves

    def on_complete(self, record: RequestRecord) -> None:
        """Completion stream hook: learn from the record's service time."""
        service = record.service_s
        if service is not None and service > 0:
            self.observe_service_time(service)

    def observe_service_time(self, service_s: float) -> None:
        """Fold one observed service time into the EWMA estimate."""
        if self.service_estimate_s <= 0:
            self.service_estimate_s = service_s
        else:
            self.service_estimate_s += self.ewma_alpha * (
                service_s - self.service_estimate_s)

    def estimated_completion_s(self, frontend: FrontendView) -> float:
        """Estimated queueing delay + service for a request arriving now."""
        backlog = frontend.total_queued + frontend.in_flight
        capacity = max(1, frontend.dispatch_capacity)
        waves = backlog / capacity
        return (waves + 1.0) * self.service_estimate_s

    def admit(self, request: Request, frontend: FrontendView) -> bool:
        """Admit unless the estimated completion would miss the SLO."""
        if self.backstop_depth is not None \
                and frontend.total_queued >= self.backstop_depth:
            return False
        if request.slo_s is None:
            return True
        if self.service_estimate_s <= 0:
            # Cold start (no estimate yet): bound the backlog to a few
            # dispatch waves so samples can be gathered without admitting
            # an unbounded, unestimated burst.
            backlog = frontend.total_queued + frontend.in_flight
            capacity = max(1, frontend.dispatch_capacity)
            return backlog < capacity * self.cold_start_waves
        return self.estimated_completion_s(frontend) \
            <= request.slo_s * self.slack_factor


@register_policy("admission")
class TokenBucketAdmission(AdmissionController):
    """Classic token-bucket rate limiter over the arrival timeline.

    The bucket holds up to ``burst`` tokens and refills at ``rate_rps``
    tokens per second of *simulated* time (measured on the arrival
    timestamps, so the policy is deterministic and needs no clock
    access).  Each admitted request spends one token; arrivals finding an
    empty bucket are rejected.  Unlike the backlog-driven policies this
    shapes the *input* rate regardless of how the backend is doing.
    """

    name = "token_bucket"

    def __init__(self, rate_rps: float = 100.0, burst: float = 10.0):
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate_rps = rate_rps
        self.burst = burst
        self.tokens = float(burst)
        self._last_arrival_s: Optional[float] = None

    def admit(self, request: Request, frontend: FrontendView) -> bool:
        """Spend one token if available, refilling from elapsed time."""
        now = request.arrival_s
        if self._last_arrival_s is not None:
            elapsed = max(0.0, now - self._last_arrival_s)
            self.tokens = min(float(self.burst),
                              self.tokens + elapsed * self.rate_rps)
        self._last_arrival_s = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False
