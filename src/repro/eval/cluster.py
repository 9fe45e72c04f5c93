"""Cluster experiments: fleet scaling sweeps through the orchestrator.

The cluster counterpart of :mod:`repro.eval.serving`: a
:class:`ClusterExperimentSpec` pairs a
:class:`~repro.serve.session.ServingScenario` with a
:class:`~repro.platform.cluster.ClusterConfig` and runs through the same
result cache and parallel pool as every other experiment — a
cluster run is deterministic for a fixed scenario seed and fleet config,
so its report is cacheable by content hash.

:func:`scaling_sweep` produces the fleet-sizing figure: goodput and tail
latency versus device count at one fixed offered load (chosen past the
single-device knee, so the sweep shows how many boards the load needs).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

from ..cluster.parallel import (
    ParallelClusterSession,
    ParallelConfig,
    parallel_refusal,
)
from ..cluster.placement import placement_snapshot_dependent
from ..cluster.report import ClusterReport
from ..cluster.session import ClusterSession
from ..obs import ObsConfig
from ..platform.cluster import ClusterConfig
from ..platform.config import PlatformConfig
from ..serve.session import ServingScenario
from .orchestrator import (
    CACHE_REVISION,
    ExperimentKey,
    ExperimentOrchestrator,
    default_orchestrator,
    register_report_class,
)

register_report_class("cluster", ClusterReport)


@dataclass(frozen=True)
class ClusterExperimentSpec:
    """One cluster run to execute: a scenario on a configured fleet.

    Duck-type compatible with the orchestrator's spec protocol: a stable
    ``key`` and a picklable ``execute()``.
    """

    scenario: ServingScenario
    cluster: ClusterConfig
    #: Optional epoch-parallel execution (None = serial session).  Folds
    #: into the cache key only when it can change the report payload:
    #: snapshot-independent placement (round-robin, tenant-affinity) is
    #: byte-identical to serial, so those specs *alias* the serial cache
    #: entry; snapshot-dependent placement routes on epoch snapshots, so
    #: its ``epoch_s`` is semantic and re-keys the entry.  The worker
    #: count is always pure execution strategy.
    parallel: Optional[ParallelConfig] = None
    #: Optional observability (None = no tracing/metrics).  Changes the
    #: report payload (the ``metrics`` timeline), so it folds into the
    #: cache key: instrumented and plain results never alias.
    obs: Optional[ObsConfig] = None

    @cached_property
    def key(self) -> ExperimentKey:
        payload = {"scenario": self.scenario.to_dict(),
                   "cluster": self.cluster.config_hash(),
                   "revision": CACHE_REVISION}
        # Folded in only when the parallel strategy can change the
        # payload; byte-identical-to-serial runs share the serial cache
        # entry, and pre-parallel specs keep their keys byte-identical.
        # behavior_rev re-keys snapshot-dependent entries whenever the
        # epoch runner's observable routing behaviour changes (rev 2:
        # fault-time boundaries + exact-instant backlog adoption).
        if self._parallel_affects_results():
            payload["parallel"] = dict(self.parallel.to_dict(),
                                       behavior_rev=2)
        if self.obs is not None:
            payload["obs"] = self.obs.to_dict()
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        return ExperimentKey(self.cluster.label, self.scenario.label, digest)

    def _parallel_affects_results(self) -> bool:
        """Whether the parallel config can change the report payload.

        Refused shapes (see :func:`parallel_refusal`) run on the serial
        session and produce the serial payload regardless of the parallel
        config, and snapshot-independent placement produces it
        byte-identically even on the parallel path.
        """
        if self.parallel is None or parallel_refusal(
                self.scenario, self.cluster, self.obs) is not None:
            return False
        return placement_snapshot_dependent(self.cluster.placement)

    def execute(self) -> ClusterReport:
        """Run this cluster experiment in-process (fresh Environment)."""
        if self.parallel is not None and parallel_refusal(
                self.scenario, self.cluster, self.obs) is None:
            return ParallelClusterSession(
                self.scenario, self.cluster, self.parallel).run()
        # Serial session: no parallel config, or a shape the epoch
        # runner refuses (observability, elastic fleets, learned
        # placement), which silently takes the serial path.
        return ClusterSession(self.scenario, self.cluster,
                              obs=self.obs).run()


@dataclass
class ScalingPoint:
    """One point of a goodput-vs-device-count curve."""

    device_count: int
    offered_rps: float          # realized arrivals / duration
    goodput_rps: float
    admitted: int
    rejected: int
    completed: int
    slo_violations: int
    p50_s: Optional[float]
    p99_s: Optional[float]
    energy_j: float
    reroutes: int

    @classmethod
    def from_report(cls, report: ClusterReport) -> "ScalingPoint":
        return cls(
            device_count=report.device_count,
            offered_rps=report.offered_rps,
            goodput_rps=report.goodput_rps,
            admitted=report.admitted,
            rejected=report.rejected,
            completed=report.completed,
            slo_violations=report.slo_violations,
            p50_s=report.p50_s,
            p99_s=report.p99_s,
            energy_j=report.energy_j,
            reroutes=report.reroutes,
        )


def scaling_specs(device_counts: Sequence[int],
                  offered_rps: float,
                  scenario: Optional[ServingScenario] = None,
                  device_config: Optional[PlatformConfig] = None,
                  placement: str = "round_robin",
                  parallel_config: Optional[ParallelConfig] = None
                  ) -> List[ClusterExperimentSpec]:
    """The [spec per device count] column of one scaling sweep.

    ``parallel_config`` opts the sweep's cells into the epoch-parallel
    runner; with the default round-robin placement that is purely an
    execution strategy (byte-identical reports, shared cache entries).
    """
    base_scenario = scenario if scenario is not None else ServingScenario()
    base_scenario = base_scenario.with_overrides(offered_rps=offered_rps)
    device = device_config if device_config is not None else PlatformConfig()
    return [ClusterExperimentSpec(
                scenario=base_scenario,
                cluster=ClusterConfig.homogeneous(count, device,
                                                  placement=placement),
                parallel=parallel_config)
            for count in device_counts]


def scaling_sweep(device_counts: Sequence[int],
                  offered_rps: float,
                  scenario: Optional[ServingScenario] = None,
                  device_config: Optional[PlatformConfig] = None,
                  placement: str = "round_robin",
                  orchestrator: Optional[ExperimentOrchestrator] = None,
                  parallel_config: Optional[ParallelConfig] = None
                  ) -> List[ScalingPoint]:
    """Fleet goodput and tail latency vs. device count at fixed load.

    Every device count is one cluster experiment submitted through the
    orchestrator (cached points served from disk, uncached ones fanned out
    over the worker pool).  Points come back in ascending device-count
    order.  An empty ``device_counts`` yields an empty sweep rather than
    an error, mirroring the edge-case contract of
    :func:`~repro.eval.serving.find_knee`.
    """
    if not device_counts:
        return []
    orch = orchestrator if orchestrator is not None else \
        default_orchestrator()
    specs = scaling_specs(device_counts, offered_rps, scenario,
                          device_config, placement, parallel_config)
    reports = orch.run(specs)
    points = [ScalingPoint.from_report(reports[spec.key]) for spec in specs]
    return sorted(points, key=lambda p: p.device_count)


def scaling_efficiency(points: Sequence[ScalingPoint]) -> List[float]:
    """Goodput speedup of each point over the smallest fleet in the sweep.

    Returns one factor per point (1.0 for the reference point itself);
    empty input yields an empty list.  A zero-goodput reference makes
    every larger fleet's factor ``inf`` (sentinel, not an exception).
    """
    ordered = sorted(points, key=lambda p: p.device_count)
    if not ordered:
        return []
    base = ordered[0].goodput_rps
    factors = []
    for point in ordered:
        if base > 0:
            factors.append(point.goodput_rps / base)
        else:
            factors.append(float("inf") if point.goodput_rps > 0 else 1.0)
    return factors
