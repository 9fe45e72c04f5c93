"""Learned-vs-static policy bake-off: do the bandits earn their keep?

The learned species (:mod:`repro.policy.learned`) claims to recover the
headroom static policies leave on the table when the workload drifts.
This module builds the three scenario families where that drift exists —

- ``bursty``: MMPP arrivals whose burst phase overruns the fleet, so the
  right admission bar moves with the phase (:class:`AdaptiveAdmission`
  vs. the static controllers);
- ``churn``: a tenant-churn trace where the tenant mix — and which queue
  rewards service — changes mid-run (:class:`EpsilonGreedyDispatch` vs.
  the static dispatch orders);
- ``hetero``: a heterogeneous fleet with a straggler device that static
  placement keeps as loaded as the fast boards
  (:class:`LinUCBPlacement` vs. the static placements);

— and runs each as one single-axis :func:`~repro.eval.policy_grid.policy_grid`
batch: the learned policy is just another cell, cached and compared
exactly like the static ones.  The verdict
(:meth:`LearnedComparison.beats_best_static`) is goodput at equal SLO
compliance, the paper's currency: a learned cell wins only if every
static cell matching its compliance (within tolerance) delivers less
goodput.

:func:`learning_curve` is the within-run view: one exact serving run,
binned into arrival-time windows, showing compliance improving as the
model's feedback count grows — the online-learning receipt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..platform.config import PlatformConfig
from ..policy import PolicySpec, policy_is_learned
from ..serve.arrivals import churn_trace
from ..serve.request import RequestStatus
from ..serve.session import ServingScenario, ServingSession, TenantSpec
from .orchestrator import ExperimentOrchestrator, default_orchestrator
from .policy_grid import PolicyGridPoint, policy_grid
from .report import format_table

#: The learned bake-off scenario axis, in presentation order.
LEARNED_SCENARIOS: Tuple[str, ...] = ("bursty", "churn", "hetero")

#: Tail-latency objective of the ``bursty``/``hetero`` scenarios.  Tight
#: on purpose: at the calibrated device scale (~23 ms service under
#: load) a 100 ms bar leaves room for a short queue but not a deep one,
#: so a misrouted or over-admitted request actually shows up as a miss.
LEARNED_SLO_S = 0.10

#: The ``churn`` scenario's split objectives: the interactive tenants
#: run under the tight bar, the background tenant under the loose one —
#: the asymmetry a dispatch order can exploit.
TIGHT_SLO_S = 0.08
LOOSE_SLO_S = 0.30

#: The calibrated fast board (single-device p99-SLO knee near 240 rps)
#: and the straggler the ``hetero`` fleet hides among them (~6x slower
#: service: 60-100 ms against the 100 ms SLO, so requests routed there
#: mostly miss).
FAST_INPUT_SCALE = 0.01
SLOW_INPUT_SCALE = 0.06


def learned_device(input_scale: float = FAST_INPUT_SCALE) -> PlatformConfig:
    """The device template of the bake-off scenarios."""
    return PlatformConfig(system="IntraO3", input_scale=input_scale)


def hetero_devices() -> Tuple[PlatformConfig, ...]:
    """Two fast boards plus one straggler (same system, ~6x slower).

    The straggler has the *same* dispatch capacity as its peers, so
    backlog-per-capacity placement cannot tell it apart at equal queue
    depth — only its observed latency gives it away, which is exactly
    the signal the placement bandit learns.
    """
    return (learned_device(), learned_device(),
            learned_device(SLOW_INPUT_SCALE))


def learned_tenants() -> Tuple[TenantSpec, ...]:
    """Two equal-share tenants under the bake-off SLO."""
    return (TenantSpec("tenant-a", 1.0, LEARNED_SLO_S),
            TenantSpec("tenant-b", 1.0, LEARNED_SLO_S))


# ---------------------------------------------------------------------- #
# Scenario factories                                                      #
# ---------------------------------------------------------------------- #
def bursty_scenario(offered_rps: float = 240.0, duration_s: float = 3.0,
                    seed: int = 21) -> ServingScenario:
    """MMPP arrivals whose burst phase overruns the two-board fleet.

    The normal phase fits comfortably; the burst phase (4x) does not, so
    a fixed admission bar is wrong in one phase or the other: deep
    enough for the bursts means queueing past the SLO, shallow enough
    for the SLO means refusing work the normal phase could serve.
    """
    return ServingScenario(process="mmpp", offered_rps=offered_rps,
                           duration_s=duration_s, seed=seed,
                           tenants=learned_tenants(),
                           mmpp_burst_factor=4.0,
                           mmpp_normal_dwell_s=0.8,
                           mmpp_burst_dwell_s=0.3)


def churn_scenario(duration_s: float = 3.0, seed: int = 23,
                   busy_rps: float = 400.0,
                   quiet_rps: float = 80.0) -> ServingScenario:
    """Tenant churn: the busy tenant departs mid-run and a new one lands.

    ``tenant-a`` serves loose-SLO background load throughout;
    ``tenant-b`` is a busy tight-SLO tenant through the first half, then
    leaves; ``tenant-c`` (also tight) onboards in the second half.
    Which queue rewards prompt service flips with the population — the
    signal the dispatch bandit tracks, while a static order keeps
    serving the background tenant at par.  The trace is a pure function
    of ``seed``.
    """
    tenants = (TenantSpec("tenant-a", 1.0, LOOSE_SLO_S),
               TenantSpec("tenant-b", 1.0, TIGHT_SLO_S),
               TenantSpec("tenant-c", 1.0, TIGHT_SLO_S))
    return ServingScenario(process="trace", duration_s=duration_s,
                           seed=seed, tenants=tenants,
                           trace_events=churn_trace(
                               duration_s, seed, busy_rps, quiet_rps))


def hetero_scenario(offered_rps: float = 380.0, duration_s: float = 3.0,
                    seed: int = 25) -> ServingScenario:
    """Steady Poisson load near the heterogeneous fleet's knee.

    The interesting dynamics come from the fleet (:func:`hetero_devices`
    hides a straggler), not the arrivals: the two fast boards can carry
    the offered rate inside the SLO, so every request routed to the
    straggler instead is a likely miss.
    """
    return ServingScenario(process="poisson", offered_rps=offered_rps,
                           duration_s=duration_s, seed=seed,
                           tenants=learned_tenants())


# ---------------------------------------------------------------------- #
# Comparison                                                              #
# ---------------------------------------------------------------------- #
@dataclass
class CellOutcome:
    """One bake-off cell: a policy selection and its fleet metrics."""

    policy: str                 # name{params} of the varied domain
    learned: bool
    goodput_rps: float
    admitted: int
    rejected: int
    completed: int
    slo_violations: int
    p99_s: Optional[float]

    @property
    def slo_compliance(self) -> float:
        """Fraction of completed requests inside their SLO."""
        if self.completed == 0:
            return 1.0
        return (self.completed - self.slo_violations) / self.completed

    @classmethod
    def from_point(cls, domain: str,
                   point: PolicyGridPoint) -> "CellOutcome":
        name = getattr(point, domain)
        return cls(
            policy=point.describe(domain),
            learned=policy_is_learned(domain, PolicySpec(name)),
            goodput_rps=point.goodput_rps,
            admitted=point.admitted,
            rejected=point.rejected,
            completed=point.completed,
            slo_violations=point.slo_violations,
            p99_s=point.p99_s)


@dataclass
class LearnedComparison:
    """One scenario's bake-off: learned cells vs. static cells."""

    scenario: str
    domain: str                 # the varied policy domain
    slo_s: float
    cells: List[CellOutcome]

    @property
    def learned_cells(self) -> List[CellOutcome]:
        return [cell for cell in self.cells if cell.learned]

    @property
    def static_cells(self) -> List[CellOutcome]:
        return [cell for cell in self.cells if not cell.learned]

    @property
    def best_learned(self) -> Optional[CellOutcome]:
        """Highest-goodput learned cell (None without learned cells)."""
        cells = self.learned_cells
        return max(cells, key=lambda c: c.goodput_rps) if cells else None

    @property
    def best_static(self) -> Optional[CellOutcome]:
        """Highest-goodput static cell (None without static cells)."""
        cells = self.static_cells
        return max(cells, key=lambda c: c.goodput_rps) if cells else None

    def beats_best_static(self, tol: float = 0.01) -> bool:
        """Goodput-at-equal-SLO-compliance verdict for the learned cells.

        True when some learned cell out-delivers every static cell that
        matches its compliance: statics whose compliance is within
        ``tol`` of (or above) the learned cell's must all have strictly
        lower goodput.  Statics that only win goodput by giving up more
        than ``tol`` compliance do not count as beating it — that is
        the classic fast-but-wrong trade, not a better policy.
        """
        for learned in self.learned_cells:
            bar = learned.slo_compliance - tol
            rivals = [static for static in self.static_cells
                      if static.slo_compliance >= bar]
            if all(static.goodput_rps < learned.goodput_rps
                   for static in rivals):
                return True
        return False


#: Static baselines each scenario's learned policy must face: every
#: registered static policy of the domain that is meaningful for the
#: scenario, in declaration order.
_BURSTY_ADMISSIONS: Tuple[Any, ...] = (
    PolicySpec("queue_depth", {"max_tenant_depth": 12}),
    PolicySpec("queue_depth", {"max_tenant_depth": 4}),
    PolicySpec("deadline"),
    PolicySpec("token_bucket"),
    PolicySpec("adaptive_admission"),
)
_CHURN_DISPATCHES: Tuple[Any, ...] = (
    PolicySpec("round_robin"),
    PolicySpec("weighted_fair"),
    PolicySpec("strict_priority"),
    PolicySpec("epsilon_greedy_dispatch"),
)
_HETERO_PLACEMENTS: Tuple[Any, ...] = (
    PolicySpec("round_robin"),
    PolicySpec("least_outstanding"),
    PolicySpec("join_shortest_queue"),
    PolicySpec("linucb_placement"),
)


def _bakeoff_one(name: str, quick: bool,
                 orchestrator: Optional[ExperimentOrchestrator]
                 ) -> LearnedComparison:
    scale = 0.5 if quick else 1.0
    if name == "bursty":
        domain = "admission"
        points = policy_grid(
            schedulers=("IntraO3",),
            admissions=_BURSTY_ADMISSIONS,
            dispatches=("round_robin",),
            placements=("round_robin",),
            scenario=bursty_scenario(duration_s=4.0 * scale),
            device_config=learned_device(), device_count=2,
            orchestrator=orchestrator)
    elif name == "churn":
        domain = "dispatch"
        points = policy_grid(
            schedulers=("IntraO3",),
            admissions=(PolicySpec("queue_depth",
                                   {"max_tenant_depth": 12}),),
            dispatches=_CHURN_DISPATCHES,
            placements=("round_robin",),
            scenario=churn_scenario(duration_s=4.0 * scale),
            device_config=learned_device(), device_count=2,
            orchestrator=orchestrator)
    elif name == "hetero":
        domain = "placement"
        points = policy_grid(
            schedulers=("IntraO3",),
            admissions=(PolicySpec("queue_depth",
                                   {"max_tenant_depth": 12}),),
            dispatches=("round_robin",),
            placements=_HETERO_PLACEMENTS,
            scenario=hetero_scenario(duration_s=4.0 * scale),
            devices=hetero_devices(),
            orchestrator=orchestrator)
    else:
        raise ValueError(f"unknown learned scenario {name!r}; "
                         f"choose from {list(LEARNED_SCENARIOS)}")
    return LearnedComparison(
        scenario=name, domain=domain, slo_s=LEARNED_SLO_S,
        cells=[CellOutcome.from_point(domain, point) for point in points])


def learned_bakeoff(scenarios: Sequence[str] = LEARNED_SCENARIOS,
                    quick: bool = False,
                    orchestrator: Optional[ExperimentOrchestrator] = None,
                    ) -> List[LearnedComparison]:
    """The learned-vs-static bake-off across the named scenarios.

    Each scenario is one single-axis policy grid (the learned policy's
    domain varies, everything else is pinned), run through the shared
    orchestrator so repeats are cache hits.  ``quick`` halves every
    scenario's duration for CI smoke runs.  Unknown scenario names raise
    with the valid set.
    """
    unknown = sorted(set(scenarios) - set(LEARNED_SCENARIOS))
    if unknown:
        raise ValueError(f"unknown learned scenario(s) {unknown}; "
                         f"choose from {list(LEARNED_SCENARIOS)}")
    orch = orchestrator if orchestrator is not None \
        else default_orchestrator()
    return [_bakeoff_one(name, quick, orch) for name in scenarios]


# ---------------------------------------------------------------------- #
# Within-run learning curve                                               #
# ---------------------------------------------------------------------- #
@dataclass
class LearningWindow:
    """One arrival-time window of a learning curve."""

    start_s: float
    end_s: float
    offered: int                # arrivals in the window
    completed: int
    slo_violations: int

    @property
    def slo_compliance(self) -> float:
        """Fraction of the window's completions inside their SLO."""
        if self.completed == 0:
            return 1.0
        return (self.completed - self.slo_violations) / self.completed


def learning_curve(scenario: ServingScenario,
                   config: Optional[PlatformConfig] = None,
                   windows: int = 8) -> List[LearningWindow]:
    """Per-window SLO compliance over one serving run.

    The run executes once; its request records are then binned by
    *arrival* time into ``windows`` equal windows.  For a learned
    policy the early windows are the exploration tax and the late ones
    the dividend — compliance should trend up as feedback accumulates.
    Deterministic for a fixed scenario seed, like every serving run.
    """
    if windows < 1:
        raise ValueError("windows must be >= 1")
    device = config if config is not None else learned_device()
    session = ServingSession(scenario, device)
    session.run()
    records = session.frontend.records
    width = scenario.duration_s / windows
    curve = []
    for index in range(windows):
        start = index * width
        end = scenario.duration_s if index == windows - 1 \
            else (index + 1) * width
        in_window = [r for r in records
                     if start <= r.request.arrival_s < end
                     or (index == windows - 1
                         and r.request.arrival_s == end)]
        done = [r for r in in_window
                if r.status is RequestStatus.COMPLETED]
        curve.append(LearningWindow(
            start_s=start, end_s=end, offered=len(in_window),
            completed=len(done),
            slo_violations=sum(1 for r in done if r.slo_met is False)))
    return curve


# ---------------------------------------------------------------------- #
# Rendering                                                               #
# ---------------------------------------------------------------------- #
def format_learned(comparisons: Sequence[LearnedComparison]) -> str:
    """Render the learned-vs-static bake-off as one table.

    One row per cell (the varied domain's policy), grouped by scenario;
    a per-scenario verdict line follows the table stating whether a
    learned cell beat the best compliance-matched static cell.
    """
    headers = ["scenario", "domain", "policy", "kind", "goodput_rps",
               "rejected", "p99_ms", "slo_ok_pct"]
    rows = []
    for comparison in comparisons:
        for cell in comparison.cells:
            rows.append([
                comparison.scenario, comparison.domain, cell.policy,
                "learned" if cell.learned else "static",
                cell.goodput_rps, cell.rejected,
                -1.0 if cell.p99_s is None else cell.p99_s * 1e3,
                100.0 * cell.slo_compliance,
            ])
    text = ("Learned vs. static policies (goodput at equal SLO "
            "compliance)\n" + format_table(headers, rows))
    for comparison in comparisons:
        best_learned = comparison.best_learned
        best_static = comparison.best_static
        if best_learned is None or best_static is None:
            continue
        if comparison.beats_best_static():
            delta = (100.0 * (best_learned.goodput_rps
                              - best_static.goodput_rps)
                     / best_static.goodput_rps
                     if best_static.goodput_rps > 0 else float("inf"))
            text += (f"\n{comparison.scenario}: {best_learned.policy} "
                     f"beats every compliance-matched static cell "
                     f"({delta:+.1f}% goodput vs. best static)")
        else:
            text += (f"\n{comparison.scenario}: learned cell does not "
                     f"beat {best_static.policy} at equal compliance")
    return text


__all__ = [
    "FAST_INPUT_SCALE",
    "LEARNED_SCENARIOS",
    "LEARNED_SLO_S",
    "LOOSE_SLO_S",
    "SLOW_INPUT_SCALE",
    "TIGHT_SLO_S",
    "CellOutcome",
    "LearnedComparison",
    "LearningWindow",
    "bursty_scenario",
    "churn_scenario",
    "format_learned",
    "hetero_devices",
    "hetero_scenario",
    "learned_bakeoff",
    "learned_device",
    "learned_tenants",
    "learning_curve",
]
