"""Open-loop arrival processes over the Table-2 kernel pool.

Each generator produces a finite, time-sorted list of
:class:`~repro.serve.request.Request` objects for a horizon, drawing the
kernel name and tenant for every arrival from weighted pools under one
deterministic seeded RNG — the same seed always reproduces the same trace,
which is what makes serving experiments cacheable by content hash.

Four processes cover the paper-style evaluation space:

* :class:`PoissonArrivals` — memoryless open-loop traffic at a fixed rate.
* :class:`MMPPArrivals` — a 2-state Markov-modulated Poisson process
  (normal/burst) for bursty tenants.
* :class:`DiurnalArrivals` — a sinusoidal day-night ramp, sampled by
  thinning a peak-rate Poisson stream.
* :class:`TraceArrivals` — replay of an explicit (time, tenant, workload)
  event list, e.g. loaded from a JSON-lines trace file.

:func:`churn_trace` builds one such event list: tenants arriving and
departing in waves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..workloads.characteristics import lookup
from ..workloads.traces import load_trace
from .request import Request

#: Default request pool: a bandwidth-light slice of Table 2 so serving
#: sweeps cover both data-intensive and compute-intensive kernels.
DEFAULT_WORKLOAD_POOL: Tuple[str, ...] = ("ATAX", "MVT", "GESUM", "BICG")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the multi-tenant front-end.

    ``weight`` is the tenant's share of the offered traffic; ``slo_s`` its
    end-to-end latency objective (None = no deadline).
    """

    name: str
    weight: float = 1.0
    slo_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.slo_s is not None and self.slo_s <= 0:
            raise ValueError("slo_s must be positive")


def _weighted_choice(rng: random.Random, items: Sequence[str],
                     weights: Sequence[float]) -> str:
    total = sum(weights)
    pick = rng.random() * total
    for item, weight in zip(items, weights):
        pick -= weight
        if pick <= 0:
            return item
    return items[-1]


class ArrivalProcess:
    """Base class: emits timestamped requests over a finite horizon."""

    def __init__(self, tenants: Sequence[TenantSpec],
                 workloads: Sequence[str] = DEFAULT_WORKLOAD_POOL,
                 seed: int = 1):
        if not tenants:
            raise ValueError("at least one tenant is required")
        if not workloads:
            raise ValueError("at least one workload is required")
        for name in workloads:
            lookup(name)    # unknown Table-2 names fail fast
        self.tenants = list(tenants)
        self.workloads = list(workloads)
        self.seed = seed

    # -- subclass contract ---------------------------------------------------
    def _arrival_times(self, rng: random.Random,
                       duration_s: float) -> List[float]:
        raise NotImplementedError

    # -- generation -----------------------------------------------------------
    def generate(self, duration_s: float) -> List[Request]:
        """The full request trace for ``duration_s`` (time-sorted)."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        rng = random.Random(self.seed)
        times = self._arrival_times(rng, duration_s)
        tenant_names = [t.name for t in self.tenants]
        tenant_weights = [t.weight for t in self.tenants]
        slo_by_tenant: Dict[str, Optional[float]] = {
            t.name: t.slo_s for t in self.tenants}
        requests: List[Request] = []
        for request_id, arrival in enumerate(times):
            tenant = _weighted_choice(rng, tenant_names, tenant_weights)
            workload = self.workloads[rng.randrange(len(self.workloads))]
            requests.append(Request(
                request_id=request_id, tenant=tenant, workload=workload,
                arrival_s=arrival, slo_s=slo_by_tenant[tenant]))
        return requests


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_rps`` requests per second."""

    def __init__(self, rate_rps: float, tenants: Sequence[TenantSpec],
                 workloads: Sequence[str] = DEFAULT_WORKLOAD_POOL,
                 seed: int = 1):
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        super().__init__(tenants, workloads, seed)
        self.rate_rps = rate_rps

    def _arrival_times(self, rng: random.Random,
                       duration_s: float) -> List[float]:
        times: List[float] = []
        t = rng.expovariate(self.rate_rps)
        while t < duration_s:
            times.append(t)
            t += rng.expovariate(self.rate_rps)
        return times


class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (normal vs. burst).

    The process alternates between a normal state at ``rate_rps`` and a
    burst state at ``rate_rps * burst_factor``; dwell times in each state
    are exponential with the given means.  The long-run average rate is
    reported by :meth:`mean_rate_rps`.
    """

    def __init__(self, rate_rps: float, tenants: Sequence[TenantSpec],
                 workloads: Sequence[str] = DEFAULT_WORKLOAD_POOL,
                 seed: int = 1, burst_factor: float = 4.0,
                 normal_dwell_s: float = 2.0, burst_dwell_s: float = 0.5):
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if normal_dwell_s <= 0 or burst_dwell_s <= 0:
            raise ValueError("dwell times must be positive")
        super().__init__(tenants, workloads, seed)
        self.rate_rps = rate_rps
        self.burst_factor = burst_factor
        self.normal_dwell_s = normal_dwell_s
        self.burst_dwell_s = burst_dwell_s

    def mean_rate_rps(self) -> float:
        """Long-run average rate over the normal/burst dwell cycle."""
        weight_normal = self.normal_dwell_s
        weight_burst = self.burst_dwell_s
        return (self.rate_rps * weight_normal
                + self.rate_rps * self.burst_factor * weight_burst) \
            / (weight_normal + weight_burst)

    def _arrival_times(self, rng: random.Random,
                       duration_s: float) -> List[float]:
        times: List[float] = []
        t = 0.0
        bursting = False
        while t < duration_s:
            dwell = rng.expovariate(
                1.0 / (self.burst_dwell_s if bursting
                       else self.normal_dwell_s))
            state_end = min(t + dwell, duration_s)
            rate = self.rate_rps * (self.burst_factor if bursting else 1.0)
            arrival = t + rng.expovariate(rate)
            while arrival < state_end:
                times.append(arrival)
                arrival += rng.expovariate(rate)
            t = state_end
            bursting = not bursting
        return times


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal day/night load ramp sampled by Poisson thinning.

    The instantaneous rate follows
    ``peak * (floor + (1 - floor) * (1 - cos(2*pi*t/period)) / 2)``:
    it starts at the floor, peaks at ``period/2`` and returns to the
    floor — one "day" per period.
    """

    def __init__(self, peak_rate_rps: float, tenants: Sequence[TenantSpec],
                 workloads: Sequence[str] = DEFAULT_WORKLOAD_POOL,
                 seed: int = 1, period_s: float = 60.0,
                 floor_fraction: float = 0.2):
        if peak_rate_rps <= 0:
            raise ValueError("peak_rate_rps must be positive")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        if not 0.0 <= floor_fraction <= 1.0:
            raise ValueError("floor_fraction must be in [0, 1]")
        super().__init__(tenants, workloads, seed)
        self.peak_rate_rps = peak_rate_rps
        self.period_s = period_s
        self.floor_fraction = floor_fraction

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t`` (cosine ramp)."""
        wave = (1.0 - math.cos(2.0 * math.pi * t / self.period_s)) / 2.0
        return self.peak_rate_rps * (
            self.floor_fraction + (1.0 - self.floor_fraction) * wave)

    def _arrival_times(self, rng: random.Random,
                       duration_s: float) -> List[float]:
        # Thinning: draw candidates at the peak rate, keep each with
        # probability rate(t)/peak.
        times: List[float] = []
        t = rng.expovariate(self.peak_rate_rps)
        while t < duration_s:
            if rng.random() < self.rate_at(t) / self.peak_rate_rps:
                times.append(t)
            t += rng.expovariate(self.peak_rate_rps)
        return times


class TraceArrivals(ArrivalProcess):
    """Replay of an explicit event list.

    Events are ``(arrival_s, tenant, workload)`` triples; tenants named in
    the trace must appear in ``tenants`` so their SLOs can be attached.
    Arrivals beyond the requested horizon are dropped.
    """

    def __init__(self, events: Sequence[Tuple[float, str, str]],
                 tenants: Sequence[TenantSpec], seed: int = 1):
        workloads = sorted({workload for _t, _ten, workload in events}) \
            or list(DEFAULT_WORKLOAD_POOL)
        super().__init__(tenants, workloads, seed)
        known = {t.name for t in self.tenants}
        for arrival, tenant, _workload in events:
            if arrival < 0:
                raise ValueError("trace arrival times must be non-negative")
            if tenant not in known:
                raise ValueError(f"trace names unknown tenant {tenant!r}")
        self.events = sorted(events, key=lambda e: e[0])

    @classmethod
    def from_file(cls, path: Union[str, Path],
                  tenants: Sequence[TenantSpec]) -> "TraceArrivals":
        """Load a JSON-lines trace: one object per line with
        ``arrival_s``, ``tenant`` and ``workload`` keys
        (the :func:`repro.workloads.traces.load_trace` format)."""
        return cls(load_trace(path), tenants)

    def generate(self, duration_s: float) -> List[Request]:
        """Materialize trace events before ``duration_s`` as requests."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        slo_by_tenant = {t.name: t.slo_s for t in self.tenants}
        return [Request(request_id=i, tenant=tenant, workload=workload,
                        arrival_s=arrival, slo_s=slo_by_tenant[tenant])
                for i, (arrival, tenant, workload)
                in enumerate(e for e in self.events if e[0] < duration_s)]

    def _arrival_times(self, rng: random.Random,
                       duration_s: float) -> List[float]:  # pragma: no cover
        return [e[0] for e in self.events if e[0] < duration_s]


def churn_trace(duration_s: float, seed: int, busy_rps: float,
                quiet_rps: float) -> Tuple[Tuple[float, str, str], ...]:
    """Tenant-churn events for :class:`TraceArrivals`.

    ``tenant-a`` arrives at ``quiet_rps`` throughout; ``tenant-b`` at
    ``busy_rps`` through the first half, then departs; ``tenant-c``
    onboards at ``busy_rps`` for the second half.  Each arrival draws
    its kernel uniformly from :data:`DEFAULT_WORKLOAD_POOL`.  The trace
    is a pure function of its arguments.
    """
    rng = random.Random(seed)
    workloads = list(DEFAULT_WORKLOAD_POOL)
    half = duration_s / 2.0
    events = []
    for tenant, start, end, rps in (("tenant-a", 0.0, duration_s, quiet_rps),
                                    ("tenant-b", 0.0, half, busy_rps),
                                    ("tenant-c", half, duration_s, busy_rps)):
        t = start
        while True:
            t += rng.expovariate(rps)
            if t >= end:
                break
            events.append((t, tenant, rng.choice(workloads)))
    return tuple(sorted(events))
