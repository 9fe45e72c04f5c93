"""Per-tenant SLO accounting for serving runs.

Every tenant owns a :class:`TenantAccount`: an end-to-end latency
reservoir (:class:`repro.sim.stats.LatencyReservoir`, so tail percentiles
stay cheap at scale) plus offered/admitted/rejected/completed counters and
an SLO-violation count.  The :class:`SLOTracker` aggregates the accounts
and answers the sweep-level questions: goodput versus offered load and
the latency tail per tenant and overall.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..sim.stats import LatencyReservoir
from .request import RequestRecord

#: The percentiles every serving report carries.
REPORT_PERCENTILES = (50.0, 95.0, 99.0, 99.9)


class TenantAccount:
    """Counters + latency reservoir for one tenant."""

    def __init__(self, tenant: str, reservoir_capacity: int = 4096,
                 seed: int = 0):
        self.tenant = tenant
        self.offered = 0
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.slo_violations = 0
        self.latency = LatencyReservoir(capacity=reservoir_capacity,
                                        seed=seed)

    # -- event feed ----------------------------------------------------------
    def on_offered(self) -> None:
        """Count one arrival."""
        self.offered += 1

    def on_admitted(self) -> None:
        """Count one admission."""
        self.admitted += 1

    def on_rejected(self) -> None:
        """Count one rejection."""
        self.rejected += 1

    def on_completed(self, record: RequestRecord) -> None:
        """Count one completion and record its end-to-end latency."""
        self.completed += 1
        latency = record.latency_s
        assert latency is not None
        self.latency.observe(latency)
        if record.slo_met is False:
            self.slo_violations += 1

    # -- derived metrics ------------------------------------------------------
    @property
    def good(self) -> int:
        """Requests completed within their SLO."""
        return self.completed - self.slo_violations

    def goodput_rps(self, duration_s: float) -> float:
        """In-SLO completions per second over ``duration_s``."""
        if duration_s <= 0:
            return 0.0
        return self.good / duration_s

    def percentile(self, pct: float) -> Optional[float]:
        """Latency percentile, or None with no samples."""
        if self.latency.count == 0:
            return None
        return self.latency.percentile(pct)

    def as_dict(self, duration_s: float) -> Dict[str, object]:
        """Counters plus latency summary as a plain dict."""
        out: Dict[str, object] = {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "slo_violations": self.slo_violations,
            "goodput_rps": self.goodput_rps(duration_s),
        }
        for pct in REPORT_PERCENTILES:
            out[f"p{pct:g}_s"] = self.percentile(pct)
        out["mean_latency_s"] = (self.latency.mean
                                 if self.latency.count else None)
        out["max_latency_s"] = (self.latency.max
                                if self.latency.count else None)
        return out


class SLOTracker:
    """All tenant accounts of one serving run plus the aggregate view."""

    def __init__(self, tenants: Sequence[str],
                 reservoir_capacity: int = 4096, seed: int = 0):
        # Per-tenant reservoirs get distinct seeds so their subsample
        # decisions are independent but still deterministic.
        self.accounts: Dict[str, TenantAccount] = {
            name: TenantAccount(name, reservoir_capacity, seed + index)
            for index, name in enumerate(tenants)}
        self.aggregate = TenantAccount("__all__", reservoir_capacity, seed)

    def account(self, tenant: str) -> TenantAccount:
        """The account for ``tenant`` (KeyError if unknown)."""
        return self.accounts[tenant]

    # -- event feed (mirrors TenantAccount) -----------------------------------
    def on_offered(self, tenant: str) -> None:
        """Record one arrival for ``tenant`` and the aggregate."""
        self.accounts[tenant].on_offered()
        self.aggregate.on_offered()

    def on_admitted(self, tenant: str) -> None:
        """Record one admission for ``tenant`` and the aggregate."""
        self.accounts[tenant].on_admitted()
        self.aggregate.on_admitted()

    def on_rejected(self, tenant: str) -> None:
        """Record one rejection for ``tenant`` and the aggregate."""
        self.accounts[tenant].on_rejected()
        self.aggregate.on_rejected()

    def on_completed(self, record: RequestRecord) -> None:
        """Record one completion for its tenant and the aggregate."""
        self.accounts[record.tenant].on_completed(record)
        self.aggregate.on_completed(record)

    # -- aggregate views -------------------------------------------------------
    @property
    def completed(self) -> int:
        """Total requests completed across all tenants."""
        return self.aggregate.completed

    @property
    def settled(self) -> int:
        """Requests with a final outcome (completed or rejected)."""
        return self.aggregate.completed + self.aggregate.rejected

    def rolling_percentile(self, pct: float) -> Optional[float]:
        """Aggregate latency percentile so far, or None with no samples.

        The metrics bus's ``rolling_p99_s`` feed (repro.obs): read
        mid-run it reflects every completion observed up to the current
        simulation time through the aggregate reservoir.
        """
        return self.aggregate.percentile(pct)

    def tenants(self) -> List[str]:
        """Tenant names, sorted for deterministic iteration."""
        return sorted(self.accounts)
