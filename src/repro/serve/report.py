"""Serializable result of one serving run.

A :class:`ServingReport` is to the serving subsystem what
:class:`~repro.core.accelerator.ExecutionReport` is to batch runs: a
plain-data summary that round-trips losslessly through dicts/JSON so the
experiment orchestrator's result cache can persist it.  It carries the
sweep-level aggregates (offered load, goodput, the latency tail) plus the
full per-tenant SLO accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass
class ServingReport:
    """Results of one open-loop serving run on one system."""

    system: str
    workload: str               # scenario label, e.g. "serve-poisson-40rps"
    duration_s: float           # arrival horizon (offered-load window)
    makespan_s: float           # time of the last completion
    offered: int
    admitted: int
    rejected: int
    completed: int
    slo_violations: int
    offered_rps: float
    goodput_rps: float
    latency: Dict[str, Optional[float]] = field(default_factory=dict)
    per_tenant: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    energy_j: float = 0.0
    scheduler_stats: Dict[str, float] = field(default_factory=dict)
    # Metrics-bus timeline (repro.obs); None unless the run opted into
    # observability, so default runs keep their byte form.
    metrics: Optional[Dict[str, Any]] = None
    # Learned-policy state snapshots per domain (repro.policy.learned);
    # None unless the run used learned policies, so static runs keep
    # their byte form.
    learned: Optional[Dict[str, Any]] = None

    # -- convenience accessors ------------------------------------------------
    def percentile_s(self, key: str) -> Optional[float]:
        """Overall latency percentile by key ("p50"/"p95"/"p99"/"p99.9")."""
        return self.latency.get(f"{key}_s")

    @property
    def p50_s(self) -> Optional[float]:
        """Median end-to-end latency."""
        return self.percentile_s("p50")

    @property
    def p95_s(self) -> Optional[float]:
        """95th-percentile end-to-end latency."""
        return self.percentile_s("p95")

    @property
    def p99_s(self) -> Optional[float]:
        """99th-percentile end-to-end latency."""
        return self.percentile_s("p99")

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-safe) form for caching and goldens."""
        data: Dict[str, Any] = {
            "system": self.system,
            "workload": self.workload,
            "duration_s": self.duration_s,
            "makespan_s": self.makespan_s,
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "slo_violations": self.slo_violations,
            "offered_rps": self.offered_rps,
            "goodput_rps": self.goodput_rps,
            "latency": dict(self.latency),
            "per_tenant": {tenant: dict(stats)
                           for tenant, stats in self.per_tenant.items()},
            "energy_j": self.energy_j,
            "scheduler_stats": dict(self.scheduler_stats),
        }
        # Emitted only when set, so default runs stay byte-identical to
        # their goldens.
        if self.metrics is not None:
            data["metrics"] = dict(self.metrics)
        if self.learned is not None:
            data["learned"] = dict(self.learned)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServingReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            system=data["system"],
            workload=data["workload"],
            duration_s=data["duration_s"],
            makespan_s=data["makespan_s"],
            offered=data["offered"],
            admitted=data["admitted"],
            rejected=data["rejected"],
            completed=data["completed"],
            slo_violations=data["slo_violations"],
            offered_rps=data["offered_rps"],
            goodput_rps=data["goodput_rps"],
            latency=dict(data.get("latency", {})),
            per_tenant={tenant: dict(stats) for tenant, stats
                        in data.get("per_tenant", {}).items()},
            energy_j=data.get("energy_j", 0.0),
            scheduler_stats=dict(data.get("scheduler_stats", {})),
            metrics=(dict(data["metrics"])
                     if data.get("metrics") is not None else None),
            learned=(dict(data["learned"])
                     if data.get("learned") is not None else None),
        )
