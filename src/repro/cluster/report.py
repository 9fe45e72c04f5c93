"""Serializable result of one cluster serving run.

A :class:`ClusterReport` rolls the per-device
:class:`~repro.serve.report.ServingReport` objects of one fleet run into
fleet-level aggregates: conserved request counters (offered/admitted/
rejected/completed), fleet goodput, the fleet-wide latency tail,
per-tenant accounting, summed energy, placement statistics and the health
timeline that was applied.  Like the other reports it round-trips
losslessly through plain dicts so the experiment orchestrator's result
cache can persist it.  :class:`FleetLedger` keeps the fleet accounts and
is the one place that builds it, for the serial dispatcher and the
parallel coordinator alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..policy import build_policy
from ..serve.report import ServingReport
from ..serve.session import latency_summary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..platform.cluster import ClusterConfig
    from ..serve.request import Request
    from ..serve.session import ServingScenario
    from ..serve.slo import SLOTracker


@dataclass
class ClusterReport:
    """Results of one open-loop serving run on a sharded fleet."""

    system: str                 # cluster label, e.g. "cluster-4xIntraO3"
    workload: str               # scenario label, e.g. "serve-poisson-240rps"
    placement: str
    device_count: int
    duration_s: float
    makespan_s: float
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
    devices: List[ServingReport] = field(default_factory=list)
    placement_stats: Dict[str, Any] = field(default_factory=dict)
    health_events: List[List[Any]] = field(default_factory=list)
    # Metrics-bus timeline (repro.obs); None unless the run opted into
    # observability, so default runs keep their byte form.
    metrics: Optional[Dict[str, Any]] = None
    # Autoscaler summary (policy, scale events, size timeline, per-device
    # device-seconds); None unless the cluster ran elastic — static runs
    # keep their byte form.
    autoscaler: Optional[Dict[str, Any]] = None
    # Fleet-level learned-policy state snapshots (the placement bandit;
    # per-device admission/dispatch snapshots live on the device
    # reports); None unless the run used learned policies.
    learned: Optional[Dict[str, Any]] = None

    # -- convenience accessors ------------------------------------------------
    def percentile_s(self, key: str) -> Optional[float]:
        """Fleet latency percentile by key ("p50"/"p95"/"p99"/"p99.9")."""
        return self.latency.get(f"{key}_s")

    @property
    def p50_s(self) -> Optional[float]:
        """Fleet median end-to-end latency."""
        return self.percentile_s("p50")

    @property
    def p95_s(self) -> Optional[float]:
        """Fleet 95th-percentile end-to-end latency."""
        return self.percentile_s("p95")

    @property
    def p99_s(self) -> Optional[float]:
        """Fleet 99th-percentile end-to-end latency."""
        return self.percentile_s("p99")

    @property
    def reroutes(self) -> int:
        """Backlog records moved off failed devices."""
        return int(self.placement_stats.get("reroutes", 0))

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-safe) form for caching and goldens."""
        data: Dict[str, Any] = {
            "system": self.system,
            "workload": self.workload,
            "placement": self.placement,
            "device_count": self.device_count,
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
            "devices": [device.to_dict() for device in self.devices],
            "placement_stats": dict(self.placement_stats),
            "health_events": [list(event) for event in self.health_events],
        }
        # Emitted only when set: runs without observability must stay
        # byte-identical to their goldens.
        if self.metrics is not None:
            data["metrics"] = dict(self.metrics)
        if self.autoscaler is not None:
            data["autoscaler"] = dict(self.autoscaler)
        if self.learned is not None:
            data["learned"] = dict(self.learned)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClusterReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            system=data["system"],
            workload=data["workload"],
            placement=data["placement"],
            device_count=data["device_count"],
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
            devices=[ServingReport.from_dict(d)
                     for d in data.get("devices", [])],
            placement_stats=dict(data.get("placement_stats", {})),
            health_events=[list(event)
                           for event in data.get("health_events", [])],
            metrics=(dict(data["metrics"])
                     if data.get("metrics") is not None else None),
            autoscaler=(dict(data["autoscaler"])
                        if data.get("autoscaler") is not None else None),
            learned=(dict(data["learned"])
                     if data.get("learned") is not None else None),
        )


class FleetLedger:
    """The fleet's accounts, shared by the serial and parallel drivers.

    Owns the fleet :class:`~repro.serve.slo.SLOTracker`, the placement
    policy and the routing counters.  The serial
    :class:`~repro.cluster.dispatcher.ClusterDispatcher` feeds it live
    shards; the epoch-parallel coordinator feeds it boundary snapshots
    and per-tenant count deltas.  Either way every offer, admission
    outcome, reroute and health transition is counted here, and
    :meth:`report` is the one place a :class:`ClusterReport` is built.
    Completions reach the fleet tracker through the shards' completion
    streams (serial) or the coordinator's canonical merge (parallel).
    """

    def __init__(self, fleet: "SLOTracker", cluster: "ClusterConfig",
                 devices: int, seed: int = 0, policy: Any = None):
        self.fleet = fleet
        if policy is None:
            # An elastic fleet may grow past the initially provisioned
            # devices: the policy is built over the ceiling, or stateless
            # policies (round-robin's modulo, tenant-affinity's hash)
            # could never reach a scaled-up device.  ``seed`` (the
            # scenario seed) feeds learned policies' exploration RNG.
            policy = build_policy(
                "placement", cluster.placement,
                device_count=(cluster.effective_max_devices
                              if cluster.elastic else devices),
                seed=seed)
        self.policy = policy
        self.routed = [0] * devices        # admitted arrivals per device
        self.rerouted_in = [0] * devices   # backlog adopted from peers
        self.rerouted_out = [0] * devices  # backlog evicted to peers
        self.reroutes = 0                  # backlog records moved
        self.cluster_rejected = 0          # arrivals with no routable device
        self.last_reject_s = 0.0           # instant of the last edge reject
        #: ``(time_s, device, state)`` per applied fault, in fault order.
        self.health_events: List[Tuple[float, int, str]] = []

    def add_device(self) -> None:
        """Extend the per-device counters for a scaled-up device."""
        self.routed.append(0)
        self.rerouted_in.append(0)
        self.rerouted_out.append(0)

    def route(self, request: "Request", views: Sequence[Any],
              now: float) -> Optional[Any]:
        """Offer one arrival and pick a routable view for it.

        Returns ``None`` — the arrival rejected at the cluster edge —
        when no view is routable.
        """
        tenant = request.tenant
        self.fleet.on_offered(tenant)
        routable = [view for view in views if view.routable]
        if not routable:
            self.cluster_rejected += 1
            self.last_reject_s = now
            self.fleet.on_rejected(tenant)
            return None
        return self.policy.select(request, routable)

    def settle(self, device: int, tenant: str, admitted: bool,
               count: int = 1) -> None:
        """Record ``count`` admission outcomes of ``tenant`` on ``device``.

        Only admitted arrivals count as ``routed``: a shard-level
        admission rejection is a fleet rejection.
        """
        account = self.fleet.accounts[tenant]
        aggregate = self.fleet.aggregate
        if admitted:
            self.routed[device] += count
            account.admitted += count
            aggregate.admitted += count
        else:
            account.rejected += count
            aggregate.rejected += count

    def reroute(self, origin: int, request: "Request",
                targets: Sequence[Any]) -> Any:
        """Place one record evicted from ``origin``; returns the target."""
        target = self.policy.select(request, targets)
        self.rerouted_out[origin] += 1
        self.rerouted_in[target.index] += 1
        self.reroutes += 1
        return target

    def report(self, scenario: "ServingScenario", cluster: "ClusterConfig",
               devices: List[ServingReport], makespan_s: float,
               energy_j: float, final_health: Sequence[str]
               ) -> ClusterReport:
        """Roll the fleet accounts into a :class:`ClusterReport`.

        The fleet counterpart of
        :func:`~repro.serve.session.assemble_serving_report`; per-device
        sequences are in device order.
        """
        fleet = self.fleet
        aggregate = fleet.aggregate
        duration = scenario.duration_s
        return ClusterReport(
            system=cluster.label,
            workload=scenario.label,
            placement=cluster.placement.name,
            device_count=len(devices),
            duration_s=duration,
            makespan_s=makespan_s,
            offered=aggregate.offered,
            admitted=aggregate.admitted,
            rejected=aggregate.rejected,
            completed=aggregate.completed,
            slo_violations=aggregate.slo_violations,
            offered_rps=aggregate.offered / duration,
            goodput_rps=aggregate.goodput_rps(duration),
            latency=latency_summary(aggregate),
            per_tenant={tenant: fleet.account(tenant).as_dict(duration)
                        for tenant in fleet.tenants()},
            energy_j=energy_j,
            devices=devices,
            placement_stats={
                "routed": list(self.routed),
                "rerouted_in": list(self.rerouted_in),
                "rerouted_out": list(self.rerouted_out),
                "reroutes": self.reroutes,
                "cluster_rejected": self.cluster_rejected,
                "final_health": list(final_health),
            },
            health_events=[list(event) for event in self.health_events],
        )
