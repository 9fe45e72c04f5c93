"""Cross-layer policy-grid sweeps through the orchestrator.

The paper's headline results are comparisons *between policies*; with all
four policy families on the unified registry (:mod:`repro.policy`), a
whole cross product — device scheduler x admission x dispatch x placement
— is one orchestrated batch: :func:`policy_grid` expands the axes into
one :class:`~repro.eval.cluster.ClusterExperimentSpec` per combination
and submits them through the same registry, result cache and parallel
pool as every other experiment, so re-running a grid is served from the
cache and only new cells simulate.

Every axis accepts policy selections in all three spellings a
:class:`~repro.policy.PolicySpec` coerces from (spec, bare name string,
``{"name": ..., "params": ...}`` dict), so parameterized policies sweep
exactly like parameterless ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster.report import ClusterReport
from ..platform.cluster import ClusterConfig
from ..platform.config import PlatformConfig
from ..policy import PolicySpec, resolved_policy_spec
from ..serve.session import ServingScenario
from .cluster import ClusterExperimentSpec
from .orchestrator import ExperimentOrchestrator, default_orchestrator

#: Default axes: a 2x2x2x2 grid over the headline device schedulers and
#: one representative pair per front-end/cluster domain.
DEFAULT_SCHEDULERS = ("InterDy", "IntraO3")
DEFAULT_ADMISSIONS = ("queue_depth", "deadline")
DEFAULT_DISPATCHES = ("round_robin", "weighted_fair")
DEFAULT_PLACEMENTS = ("round_robin", "least_outstanding")


def describe_policy(name: str, params: Mapping[str, Any]) -> str:
    """Compact ``name{k=v, ...}`` rendering; just the name when bare.

    Grid axes may hold several parameterizations of one policy, so
    report rows and labels must carry the params or the cells become
    indistinguishable.
    """
    if not params:
        return name
    inner = ", ".join(f"{k}={params[k]!r}" for k in sorted(params))
    return f"{name}{{{inner}}}"


@dataclass(frozen=True)
class PolicyCombo:
    """One grid cell: a policy selection in every domain."""

    scheduler: PolicySpec
    admission: PolicySpec
    dispatch: PolicySpec
    placement: PolicySpec

    @property
    def label(self) -> str:
        """Compact ``sched/adm/disp/place`` identity (params included)."""
        return "/".join(describe_policy(spec.name, spec.params)
                        for spec in (self.scheduler, self.admission,
                                     self.dispatch, self.placement))


@dataclass
class PolicyGridPoint:
    """One grid cell's outcome: the combo plus the fleet-level metrics.

    The four ``*_params`` dicts keep parameterized cells apart: an axis
    may sweep several parameterizations of one policy name, and the
    report must be able to tell them apart.
    """

    scheduler: str
    admission: str
    dispatch: str
    placement: str
    offered_rps: float          # realized arrivals / duration
    goodput_rps: float
    admitted: int
    rejected: int
    completed: int
    slo_violations: int
    p50_s: Optional[float]
    p99_s: Optional[float]
    energy_j: float
    scheduler_params: Dict[str, Any] = field(default_factory=dict)
    admission_params: Dict[str, Any] = field(default_factory=dict)
    dispatch_params: Dict[str, Any] = field(default_factory=dict)
    placement_params: Dict[str, Any] = field(default_factory=dict)

    def describe(self, domain: str) -> str:
        """``name{params}`` rendering of one domain's selection."""
        return describe_policy(getattr(self, domain),
                               getattr(self, f"{domain}_params"))

    @property
    def label(self) -> str:
        """Compact ``sched/adm/disp/place`` identity (params included)."""
        return "/".join(self.describe(domain) for domain in
                        ("scheduler", "admission", "dispatch", "placement"))

    @classmethod
    def from_report(cls, combo: PolicyCombo,
                    report: ClusterReport) -> "PolicyGridPoint":
        return cls(
            scheduler=combo.scheduler.name,
            admission=combo.admission.name,
            dispatch=combo.dispatch.name,
            placement=combo.placement.name,
            offered_rps=report.offered_rps,
            goodput_rps=report.goodput_rps,
            admitted=report.admitted,
            rejected=report.rejected,
            completed=report.completed,
            slo_violations=report.slo_violations,
            p50_s=report.p50_s,
            p99_s=report.p99_s,
            energy_j=report.energy_j,
            scheduler_params=dict(combo.scheduler.params),
            admission_params=dict(combo.admission.params),
            dispatch_params=dict(combo.dispatch.params),
            placement_params=dict(combo.placement.params),
        )


def _coerce_axis(axis: Sequence[Any], domain: str) -> List[PolicySpec]:
    # resolved_policy_spec materializes constructor defaults into learned
    # specs (warm-up, exploration, retrain cadence are behavior), so a
    # learned cell's cache key can never alias a result computed under a
    # since-retuned default; static specs pass through untouched and keep
    # every pre-existing cache key byte-identical.
    specs = [resolved_policy_spec(domain, entry) for entry in axis]
    if not specs:
        raise ValueError(f"the {domain} axis of a policy grid needs at "
                         f"least one policy")
    return specs


def policy_grid_specs(
        schedulers: Sequence[Any] = DEFAULT_SCHEDULERS,
        admissions: Sequence[Any] = DEFAULT_ADMISSIONS,
        dispatches: Sequence[Any] = DEFAULT_DISPATCHES,
        placements: Sequence[Any] = DEFAULT_PLACEMENTS,
        scenario: Optional[ServingScenario] = None,
        device_config: Optional[PlatformConfig] = None,
        device_count: int = 2,
        devices: Optional[Sequence[PlatformConfig]] = None,
        ) -> List[Tuple[PolicyCombo, ClusterExperimentSpec]]:
    """Expand the axes into one cluster experiment per combination.

    Cells iterate in cross-product order (scheduler outermost, placement
    innermost).  A scheduler entry becomes each device's ``system``
    (schedulers take no params, so an entry with params is rejected).  A
    bare admission entry naming the base scenario's admission policy
    keeps the base scenario's params (e.g. its ``queue_depth`` bound),
    exactly as the same scenario does outside the grid.

    ``devices`` builds each cell's fleet from an explicit per-device
    config list instead of ``device_count`` copies of ``device_config`` —
    the heterogeneous-fleet axis (e.g. one straggler board at a larger
    ``input_scale``).  The scheduler selection still applies fleet-wide
    (each device keeps its own capacity knobs but runs the cell's
    scheduler); pass ``devices`` or ``device_config``, never both.
    """
    if devices is not None:
        if device_config is not None:
            raise ValueError(
                "pass either devices (heterogeneous fleet) or "
                "device_config (homogeneous fleet), not both")
        base_devices: Tuple[PlatformConfig, ...] = tuple(devices)
        if not base_devices:
            raise ValueError("devices needs at least one PlatformConfig")
    else:
        if device_count < 1:
            raise ValueError("device_count must be >= 1")
        base = device_config if device_config is not None \
            else PlatformConfig()
        base_devices = tuple(base for _ in range(device_count))
    base_scenario = scenario if scenario is not None else ServingScenario()
    grid: List[Tuple[PolicyCombo, ClusterExperimentSpec]] = []
    base_admission = base_scenario.admission
    for sched in _coerce_axis(schedulers, "scheduler"):
        # A scheduler entry with params raises here: schedulers take none.
        cell_devices = tuple(device.with_overrides(system=sched)
                             for device in base_devices)
        for adm in _coerce_axis(admissions, "admission"):
            cell_admission = base_admission \
                if not adm.params and adm.name == base_admission.name \
                else adm
            for disp in _coerce_axis(dispatches, "dispatch"):
                cell_scenario = base_scenario.with_overrides(
                    admission=cell_admission, dispatch_spec=disp)
                for place in _coerce_axis(placements, "placement"):
                    cluster = ClusterConfig(devices=cell_devices,
                                            placement=place)
                    combo = PolicyCombo(scheduler=sched, admission=adm,
                                        dispatch=disp, placement=place)
                    grid.append((combo, ClusterExperimentSpec(
                        scenario=cell_scenario, cluster=cluster)))
    return grid


def policy_grid(
        schedulers: Sequence[Any] = DEFAULT_SCHEDULERS,
        admissions: Sequence[Any] = DEFAULT_ADMISSIONS,
        dispatches: Sequence[Any] = DEFAULT_DISPATCHES,
        placements: Sequence[Any] = DEFAULT_PLACEMENTS,
        scenario: Optional[ServingScenario] = None,
        device_config: Optional[PlatformConfig] = None,
        device_count: int = 2,
        devices: Optional[Sequence[PlatformConfig]] = None,
        orchestrator: Optional[ExperimentOrchestrator] = None,
        parallel: Optional[bool] = None) -> List[PolicyGridPoint]:
    """Run the whole cross product as one orchestrated batch.

    Cached cells are served from disk, uncached ones fan out over the
    orchestrator's worker pool; points come back in cross-product order.
    Any empty axis raises (an empty grid is a configuration error, unlike
    an empty rate sweep).
    """
    grid = policy_grid_specs(schedulers, admissions, dispatches,
                             placements, scenario, device_config,
                             device_count, devices)
    orch = orchestrator if orchestrator is not None else \
        default_orchestrator()
    reports = orch.run([spec for _, spec in grid], parallel=parallel)
    return [PolicyGridPoint.from_report(combo, reports[spec.key])
            for combo, spec in grid]


def best_by_goodput(points: Sequence[PolicyGridPoint],
                    slo_s: Optional[float] = None
                    ) -> Optional[PolicyGridPoint]:
    """The highest-goodput point, optionally only among SLO-compliant ones.

    With ``slo_s`` set, points whose fleet p99 misses the SLO (or has no
    latency data at all) are excluded; returns ``None`` when nothing
    qualifies — a sentinel, not an exception, mirroring ``find_knee``.
    """
    candidates = list(points)
    if slo_s is not None:
        candidates = [p for p in candidates
                      if p.p99_s is not None and p.p99_s <= slo_s]
    if not candidates:
        return None
    return max(candidates, key=lambda p: p.goodput_rps)
