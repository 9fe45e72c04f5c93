"""Request model for the online serving subsystem.

A :class:`Request` is one timestamped kernel-offload demand emitted by an
arrival process: a tenant asks for one instance of a Table-2 kernel at a
given simulation time, optionally with a latency SLO.  The front-end wraps
each request in a :class:`RequestRecord` that accumulates the lifecycle
timestamps the SLO accounting is computed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


@dataclass(frozen=True)
class Request:
    """One kernel-offload request emitted by an arrival process."""

    request_id: int
    tenant: str
    workload: str               # Table-2 kernel name, e.g. "ATAX"
    arrival_s: float            # absolute simulation time of arrival
    slo_s: Optional[float] = None   # end-to-end latency objective


class RequestStatus(Enum):
    """Lifecycle of one request inside the serving front-end."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    REJECTED = "rejected"


@dataclass
class RequestRecord:
    """Per-request bookkeeping: admission decision plus timestamps.

    ``reroutes`` counts how many times the cluster layer moved this
    record's backlog entry off a failed device onto a peer; it stays 0
    on the single-device path and for requests that were dispatched
    before any fault hit.
    """

    request: Request
    status: RequestStatus = RequestStatus.QUEUED
    admitted_at: Optional[float] = None
    dispatched_at: Optional[float] = None
    completed_at: Optional[float] = None
    reroutes: int = 0

    @property
    def tenant(self) -> str:
        """Owning tenant (delegates to the request)."""
        return self.request.tenant

    @property
    def latency_s(self) -> Optional[float]:
        """End-to-end latency: arrival to completion."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.request.arrival_s

    @property
    def service_s(self) -> Optional[float]:
        """Dispatch-to-completion time, or None while pending."""
        if self.completed_at is None or self.dispatched_at is None:
            return None
        return self.completed_at - self.dispatched_at

    @property
    def slo_met(self) -> Optional[bool]:
        """True/False once completed (None while in flight or rejected)."""
        if self.completed_at is None:
            return None
        if self.request.slo_s is None:
            return True
        return self.latency_s <= self.request.slo_s
