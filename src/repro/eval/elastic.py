"""Elastic-fleet evaluation: autoscaled vs. statically provisioned.

The question an autoscaler must answer in the paper's terms: how many
device-seconds does reacting to load save over provisioning for the peak,
*without* giving up SLO compliance or dropping admitted work?  This module
builds the scenario axis the ROADMAP names — diurnal traffic, a spot-style
preemption drill (via the PR-3 fault path), and tenant churn — runs each
scenario twice (an elastic fleet bounded by ``[min, max]`` devices, and a
static fleet pinned at ``max``), and rolls both runs into one
:class:`ElasticComparison` that
:func:`~repro.eval.report.format_elastic` renders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..platform.cluster import ClusterConfig, FaultSpec
from ..platform.config import PlatformConfig
from ..policy import PolicySpec
from ..serve.arrivals import churn_trace
from ..serve.session import ServingScenario, TenantSpec
from ..cluster.parallel import ParallelConfig
from .cluster import ClusterExperimentSpec
from .orchestrator import ExperimentOrchestrator, default_orchestrator

#: The ROADMAP's elastic scenario axis, in presentation order.
ELASTIC_SCENARIOS: Tuple[str, ...] = ("diurnal", "preemption", "churn")

#: Default autoscaler the comparisons run with.  The low up-threshold
#: makes the fleet react within a control tick or two of a ramp — at the
#: calibrated device scale a queue three deep already means ~30 ms of
#: wait against a 250 ms SLO.  The down-threshold is on *outstanding*
#: work per device: below half a request per device the fleet is
#: genuinely idle, not just between queue bursts.
DEFAULT_AUTOSCALER = PolicySpec("queue_depth_threshold",
                                {"scale_up_depth": 3.0,
                                 "scale_down_depth": 0.5})

#: Tail-latency objective of the elastic scenarios (matches the cluster
#: scaling benchmark, so "equal SLO compliance" means the same bar).
ELASTIC_SLO_S = 0.25

#: Admission of the elastic scenarios: a shallow per-tenant queue bound,
#: so an under-provisioned fleet sheds load instead of queueing it.
ELASTIC_ADMISSION = PolicySpec("queue_depth", {"max_tenant_depth": 12})

#: Device scale the scenarios are calibrated against: the same
#: ``input_scale=0.01`` FlashAbacus board the cluster scaling benchmark
#: uses, whose single-device p99-SLO knee sits near 240 rps.
ELASTIC_INPUT_SCALE = 0.01


def elastic_device() -> PlatformConfig:
    """The device template the elastic scenarios are calibrated for."""
    return PlatformConfig(system="IntraO3", input_scale=ELASTIC_INPUT_SCALE)


def elastic_tenants() -> Tuple[TenantSpec, ...]:
    """Two equal-share tenants under the elastic SLO."""
    return (TenantSpec("tenant-a", 1.0, ELASTIC_SLO_S),
            TenantSpec("tenant-b", 1.0, ELASTIC_SLO_S))


# ---------------------------------------------------------------------- #
# Scenario factories                                                      #
# ---------------------------------------------------------------------- #
def diurnal_scenario(peak_rps: float = 480.0, duration_s: float = 3.0,
                     seed: int = 7, period_s: float = 3.0,
                     floor: float = 0.1) -> ServingScenario:
    """Day/night load: offered rate swings between ``floor*peak`` and peak.

    The canonical elastic workload — a static fleet must provision for
    the peak and idles through every trough.  The default peak needs
    roughly two to three of the calibrated devices; the trough fits on
    one.  ``period_s == duration_s`` gives one full day/night cycle, so
    the troughs dwell long enough for the fleet to actually shrink —
    cycling much faster than the control cadence just makes the fleet
    chase ramps.
    """
    return ServingScenario(process="diurnal", offered_rps=peak_rps,
                           duration_s=duration_s, seed=seed,
                           tenants=elastic_tenants(),
                           admission=ELASTIC_ADMISSION,
                           diurnal_period_s=period_s, diurnal_floor=floor)


def preemption_faults(fail_device: int, fail_at_s: float,
                      recover_at_s: float) -> Tuple[FaultSpec, ...]:
    """A spot-style reclaim drill on the existing fault path.

    Device ``fail_device`` is yanked at ``fail_at_s`` (its backlog
    reroutes, in-flight work drains — the spot two-minute warning in
    miniature) and handed back at ``recover_at_s``; the autoscaler must
    ride through both transitions.
    """
    if recover_at_s <= fail_at_s:
        raise ValueError("recovery must come after the failure")
    return (FaultSpec(fail_at_s, fail_device, "failed"),
            FaultSpec(recover_at_s, fail_device, "healthy"))


def preemption_scenario(offered_rps: float = 300.0,
                        duration_s: float = 3.0,
                        seed: int = 11) -> ServingScenario:
    """Steady Poisson load for the preemption drill.

    The interesting dynamics come from the fault timeline
    (:func:`preemption_faults`), not the arrivals.
    """
    return ServingScenario(process="poisson", offered_rps=offered_rps,
                           duration_s=duration_s, seed=seed,
                           tenants=elastic_tenants(),
                           admission=ELASTIC_ADMISSION)


def churn_scenario(duration_s: float = 3.0, seed: int = 13,
                   busy_rps: float = 300.0,
                   quiet_rps: float = 60.0) -> ServingScenario:
    """Tenant churn: tenants arrive and depart in waves (trace process).

    ``tenant-a`` serves background load throughout; ``tenant-b`` is busy
    in the first half then leaves, ``tenant-c`` onboards in the second
    half.  The fleet-level rate steps with the tenant population, so the
    autoscaler sees churn rather than a smooth curve.  The trace is a
    pure function of ``seed``.
    """
    tenants = elastic_tenants() + (
        TenantSpec("tenant-c", 1.0, ELASTIC_SLO_S),)
    return ServingScenario(process="trace", duration_s=duration_s,
                           seed=seed, tenants=tenants,
                           admission=ELASTIC_ADMISSION,
                           trace_events=churn_trace(
                               duration_s, seed, busy_rps, quiet_rps))


# ---------------------------------------------------------------------- #
# Comparison                                                              #
# ---------------------------------------------------------------------- #
@dataclass
class FleetOutcome:
    """One fleet's side of an elastic-vs-static comparison."""

    mode: str                   # "elastic" or "static"
    device_seconds: float       # provisioned device-time actually paid
    peak_devices: int
    low_devices: int            # smallest active fleet seen
    scale_events: int           # scale_up + scale_down decisions
    offered: int
    admitted: int
    completed: int
    dropped: int                # admitted - completed (must be 0)
    slo_violations: int
    goodput_rps: float
    p99_s: Optional[float]
    energy_j: float

    @property
    def slo_compliance(self) -> float:
        """Fraction of completed requests inside their SLO."""
        if self.completed == 0:
            return 1.0
        return (self.completed - self.slo_violations) / self.completed


def fleet_outcome(mode: str, report) -> FleetOutcome:
    """Summarize one :class:`~repro.cluster.report.ClusterReport`."""
    summary = report.autoscaler
    if summary is not None:
        device_seconds = summary["total_device_seconds"]
        peak = summary["peak_devices"]
        low = summary["min_active_devices"]
        events = sum(1 for event in summary["events"]
                     if event[1] in ("scale_up", "scale_down"))
    else:
        device_seconds = report.device_count * report.makespan_s
        peak = low = report.device_count
        events = 0
    return FleetOutcome(
        mode=mode, device_seconds=device_seconds, peak_devices=peak,
        low_devices=low, scale_events=events, offered=report.offered,
        admitted=report.admitted, completed=report.completed,
        dropped=report.admitted - report.completed,
        slo_violations=report.slo_violations,
        goodput_rps=report.goodput_rps, p99_s=report.p99_s,
        energy_j=report.energy_j)


@dataclass
class ElasticComparison:
    """Elastic vs. statically max-provisioned fleet on one scenario."""

    scenario: str
    elastic: FleetOutcome
    static: FleetOutcome

    @property
    def device_seconds_saved_pct(self) -> float:
        """Provisioned device-time the elastic fleet saved, percent."""
        if self.static.device_seconds == 0:
            return 0.0
        saved = self.static.device_seconds - self.elastic.device_seconds
        return 100.0 * saved / self.static.device_seconds

    @property
    def compliance_gap(self) -> float:
        """SLO-compliance delta (elastic - static); ~0 = equal quality."""
        return self.elastic.slo_compliance - self.static.slo_compliance


def elastic_cluster(device: Optional[PlatformConfig] = None,
                    initial_devices: int = 2, min_devices: int = 1,
                    max_devices: int = 4,
                    autoscaler: Optional[PolicySpec] = None,
                    warmup_s: float = 0.1,
                    interval_s: float = 0.1,
                    faults: Tuple[FaultSpec, ...] = ()) -> ClusterConfig:
    """An elastic fleet: starts at ``initial_devices``, bounded [min, max]."""
    device = device if device is not None else elastic_device()
    spec = autoscaler if autoscaler is not None else DEFAULT_AUTOSCALER
    return ClusterConfig.homogeneous(
        initial_devices, device, faults=faults, autoscaler_spec=spec,
        min_devices=min_devices, max_devices=max_devices,
        warmup_s=warmup_s, autoscale_interval_s=interval_s)


def elastic_comparison(scenario: ServingScenario, label: str,
                       device: Optional[PlatformConfig] = None,
                       initial_devices: int = 2, min_devices: int = 1,
                       max_devices: int = 4,
                       autoscaler: Optional[PolicySpec] = None,
                       warmup_s: float = 0.1, interval_s: float = 0.1,
                       faults: Tuple[FaultSpec, ...] = (),
                       orchestrator: Optional[ExperimentOrchestrator]
                       = None) -> ElasticComparison:
    """Run one scenario on an elastic and a static-max fleet.

    The static reference is pinned at ``max_devices`` — what you would
    provision without an autoscaler to survive the same peak.  Both runs
    go through the experiment orchestrator, so repeats are cache hits.
    """
    device = device if device is not None else elastic_device()
    orch = orchestrator if orchestrator is not None \
        else default_orchestrator()
    elastic = elastic_cluster(device, initial_devices, min_devices,
                              max_devices, autoscaler, warmup_s,
                              interval_s, faults)
    static = ClusterConfig.homogeneous(max_devices, device, faults=faults)
    # The elastic cell needs the serial session (the fleet resizes
    # mid-run); the static reference is a fixed round-robin fleet, so it
    # takes the epoch-parallel path — byte-identical by contract, and
    # key-aliased to the serial cache entry.
    specs = [ClusterExperimentSpec(scenario=scenario, cluster=elastic),
             ClusterExperimentSpec(scenario=scenario, cluster=static,
                                   parallel=ParallelConfig())]
    reports = orch.run(specs)
    return ElasticComparison(
        scenario=label,
        elastic=fleet_outcome("elastic", reports[specs[0].key]),
        static=fleet_outcome("static", reports[specs[1].key]))


def elastic_sweep(scenarios: Sequence[str] = ELASTIC_SCENARIOS,
                  device: Optional[PlatformConfig] = None,
                  max_devices: int = 4,
                  autoscaler: Optional[PolicySpec] = None,
                  quick: bool = False,
                  orchestrator: Optional[ExperimentOrchestrator] = None,
                  ) -> List[ElasticComparison]:
    """The elastic-vs-static comparison across the named scenarios.

    ``quick`` shrinks every scenario's duration/load for CI smoke runs.
    Unknown scenario names raise with the valid set.
    """
    unknown = sorted(set(scenarios) - set(ELASTIC_SCENARIOS))
    if unknown:
        raise ValueError(f"unknown elastic scenario(s) {unknown}; "
                         f"choose from {list(ELASTIC_SCENARIOS)}")
    results = []
    for name in scenarios:
        faults: Tuple[FaultSpec, ...] = ()
        if name == "diurnal":
            scenario = (diurnal_scenario(peak_rps=360.0, duration_s=2.0,
                                         period_s=2.0) if quick
                        else diurnal_scenario())
        elif name == "preemption":
            scenario = (preemption_scenario(offered_rps=240.0,
                                            duration_s=2.0) if quick
                        else preemption_scenario())
            third = scenario.duration_s / 3.0
            faults = preemption_faults(fail_device=0, fail_at_s=third,
                                       recover_at_s=2.0 * third)
        else:  # churn
            scenario = (churn_scenario(duration_s=2.0, busy_rps=240.0)
                        if quick else churn_scenario())
        results.append(elastic_comparison(
            scenario, name, device=device, max_devices=max_devices,
            autoscaler=autoscaler, orchestrator=orchestrator,
            faults=faults))
    return results
