"""Serving experiments: saturation sweeps through the orchestrator.

The serving counterpart of :mod:`repro.eval.experiments`: a
:class:`ServingExperimentSpec` pairs a
:class:`~repro.serve.session.ServingScenario` with a
:class:`~repro.platform.PlatformConfig` and runs through the same
registry, result cache and parallel pool as the batch experiments — a
serving run is deterministic for a fixed scenario seed, so its report is
cacheable by content hash exactly like a batch report.

:func:`saturation_sweep` produces the paper-style serving figure: offered
load versus goodput and tail latency (p50/p95/p99) for each system, from
which :func:`find_knee` extracts the SLO knee — the highest offered load a
system sustains with its p99 still inside the SLO.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

from ..obs import ObsConfig
from ..platform.config import PlatformConfig
from ..serve.report import ServingReport
from ..serve.session import ServingScenario, ServingSession
from .orchestrator import (
    CACHE_REVISION,
    ExperimentKey,
    ExperimentOrchestrator,
    default_orchestrator,
    register_report_class,
)

#: Default sweep systems: the baseline plus the two headline schedulers.
DEFAULT_SWEEP_SYSTEMS = ("SIMD", "InterDy", "IntraO3")

register_report_class("serving", ServingReport)


@dataclass(frozen=True)
class ServingExperimentSpec:
    """One serving run to execute: a scenario on a configured platform.

    Duck-type compatible with
    :class:`~repro.eval.orchestrator.ExperimentSpec`: exposes a stable
    ``key`` and a picklable ``execute()``, so the orchestrator treats both
    uniformly.
    """

    scenario: ServingScenario
    config: PlatformConfig
    #: Optional observability (None = no tracing/metrics).  Changes the
    #: report payload (the ``metrics`` timeline), so it folds into the
    #: cache key: instrumented and plain results never alias.
    obs: Optional[ObsConfig] = None

    @cached_property
    def key(self) -> ExperimentKey:
        # The digest covers the full scenario (arrival process, seed,
        # tenants, admission, ...), the platform config hash and the cache
        # revision — any change to the simulated behavior re-keys the
        # entry instead of serving a stale result.
        payload: Dict[str, object] = {
            "scenario": self.scenario.to_dict(),
            "config": self.config.config_hash(),
            "revision": CACHE_REVISION,
        }
        # Folded in only when set, so uninstrumented specs keep their
        # cache keys byte-identical.
        if self.obs is not None:
            payload["obs"] = self.obs.to_dict()
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        return ExperimentKey(self.config.system, self.scenario.label, digest)

    def execute(self) -> ServingReport:
        """Run this serving experiment in-process (fresh Environment)."""
        return ServingSession(self.scenario, self.config,
                              obs=self.obs).run()


@dataclass
class SaturationPoint:
    """One point of a goodput-vs-offered-load curve."""

    offered_rps: float          # nominal rate of the arrival process
    actual_offered_rps: float   # realized arrivals / duration
    goodput_rps: float
    admitted: int
    rejected: int
    completed: int
    slo_violations: int
    p50_s: Optional[float]
    p95_s: Optional[float]
    p99_s: Optional[float]

    @classmethod
    def from_report(cls, nominal_rps: float,
                    report: ServingReport) -> "SaturationPoint":
        return cls(
            offered_rps=nominal_rps,
            actual_offered_rps=report.offered_rps,
            goodput_rps=report.goodput_rps,
            admitted=report.admitted,
            rejected=report.rejected,
            completed=report.completed,
            slo_violations=report.slo_violations,
            p50_s=report.p50_s,
            p95_s=report.p95_s,
            p99_s=report.p99_s,
        )


def sweep_specs(rates: Sequence[float],
                systems: Sequence[str] = DEFAULT_SWEEP_SYSTEMS,
                scenario: Optional[ServingScenario] = None,
                config: Optional[PlatformConfig] = None
                ) -> Dict[str, List[ServingExperimentSpec]]:
    """The {system: [spec per rate]} grid of one saturation sweep."""
    base_scenario = scenario if scenario is not None else ServingScenario()
    base_config = config if config is not None else PlatformConfig()
    return {system: [ServingExperimentSpec(
                        scenario=base_scenario.with_overrides(
                            offered_rps=rate),
                        config=base_config.with_overrides(system=system))
                     for rate in rates]
            for system in systems}


def saturation_sweep(rates: Sequence[float],
                     systems: Sequence[str] = DEFAULT_SWEEP_SYSTEMS,
                     scenario: Optional[ServingScenario] = None,
                     config: Optional[PlatformConfig] = None,
                     orchestrator: Optional[ExperimentOrchestrator] = None,
                     parallel: Optional[bool] = None
                     ) -> Dict[str, List[SaturationPoint]]:
    """Offered-load sweep: goodput and latency tail per system and rate.

    The whole ``systems`` x ``rates`` grid is submitted as one
    orchestrated batch, so cached points are served from disk and uncached
    ones fan out over the worker pool.  Points are returned in ascending
    nominal-rate order per system.
    """
    if not rates:
        # Empty sweep: empty curves (a sentinel, not an error), so sweep
        # drivers composing rate lists programmatically need no guard.
        return {system: [] for system in systems}
    orch = orchestrator if orchestrator is not None else \
        default_orchestrator()
    grid = sweep_specs(rates, systems, scenario, config)
    reports = orch.run([spec for specs in grid.values() for spec in specs],
                       parallel=parallel)
    curves: Dict[str, List[SaturationPoint]] = {}
    for system, specs in grid.items():
        points = [SaturationPoint.from_report(rate, reports[spec.key])
                  for rate, spec in zip(rates, specs)]
        curves[system] = sorted(points, key=lambda p: p.offered_rps)
    return curves


def find_knee(points: Sequence[SaturationPoint],
              slo_s: float) -> Optional[float]:
    """Highest offered load up to which p99 latency stays within ``slo_s``.

    The knee is the last point of the *contiguous* in-SLO prefix of the
    sweep: once a measured point violates the SLO (or has no latency data
    at all, e.g. everything was rejected), later in-SLO points are noise
    from an already-saturated regime and do not extend the knee — noisy
    seeds can make p99 dip back under the SLO past saturation, and
    reporting that load as sustainable would overstate capacity.

    Returns ``None`` (a sentinel, never an exception) for an empty sweep
    or when the very first measured point already violates the SLO (the
    knee lies below the sweep range).
    """
    knee: Optional[float] = None
    for point in sorted(points, key=lambda p: p.offered_rps):
        if point.p99_s is None or point.p99_s > slo_s:
            break
        knee = point.offered_rps
    return knee
