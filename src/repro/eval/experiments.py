"""One function per table/figure of the paper's evaluation (Section 5).

Every function returns plain data structures (dicts keyed by workload and
system) so the benchmarks can both print paper-style rows and assert the
qualitative relations that define a successful reproduction.  ``input_scale``
shrinks the data sets proportionally — the scheduling/energy *ratios* are
scale-invariant, so the default benchmark configuration uses a moderate
scale to keep run time reasonable.

All figure functions route through the
:class:`~repro.eval.orchestrator.ExperimentOrchestrator`: pass one
explicitly (or configure the default via ``REPRO_CACHE_DIR`` /
``REPRO_PARALLEL``) to get persistent result caching and process-parallel
sweeps; by default experiments run serially in-process exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..hw.spec import HardwareSpec
from ..platform.config import PlatformConfig
from ..workloads.characteristics import POLYBENCH_ORDER, REALWORLD_ORDER
from ..workloads.mixes import MIX_ORDER
from .orchestrator import (
    HETEROGENEOUS_INSTANCES_PER_KERNEL,
    HOMOGENEOUS_INSTANCES,
    ExperimentOrchestrator,
    ExperimentSpec,
    WorkloadSpec,
    default_orchestrator,
)
from .runner import SYSTEMS, ComparisonResult

__all__ = [
    "HETEROGENEOUS_INSTANCES_PER_KERNEL",
    "HOMOGENEOUS_INSTANCES",
    "TimeSeriesResult",
    "fig10a_homogeneous_throughput",
    "fig10b_heterogeneous_throughput",
    "fig11_latency",
    "fig12_completion_cdf",
    "fig13_energy_breakdown",
    "fig14_utilization",
    "fig15_timeseries",
    "fig16_realworld",
    "headline_summary",
]


def _compare_many(kind: str, names: Sequence[str], systems: Sequence[str],
                  instances: Optional[int], input_scale: float,
                  spec: Optional[HardwareSpec],
                  orchestrator: Optional[ExperimentOrchestrator],
                  track_power_series: bool = False
                  ) -> Dict[str, ComparisonResult]:
    """Run the full ``names`` x ``systems`` grid as one orchestrated sweep.

    Submitting the whole grid at once lets a parallel orchestrator use all
    of its workers across workload boundaries (one pool for the figure)
    instead of fanning out at most ``len(systems)`` simulations at a time.
    """
    orch = orchestrator if orchestrator is not None else default_orchestrator()
    kwargs = {
        "instances": instances,
        "input_scale": input_scale,
        "track_power_series": track_power_series,
    }
    if spec is not None:
        kwargs["spec"] = spec
    base = PlatformConfig(**kwargs)
    grid = {name: [ExperimentSpec(workload=WorkloadSpec(kind, name),
                                  config=base.with_overrides(system=system))
                   for system in systems]
            for name in names}
    reports = orch.run([s for specs in grid.values() for s in specs])
    out: Dict[str, ComparisonResult] = {}
    for name, specs in grid.items():
        comparison = ComparisonResult(workload=name)
        for system, espec in zip(systems, specs):
            comparison.reports[system] = reports[espec.key]
        out[name] = comparison
    return out


def _compare_flavor_many(heterogeneous: bool, names: Sequence[str],
                         systems: Sequence[str], input_scale: float,
                         spec: Optional[HardwareSpec],
                         orchestrator: Optional[ExperimentOrchestrator]
                         ) -> Dict[str, ComparisonResult]:
    """The shared homogeneous-vs-heterogeneous resolution of Figs. 11-14."""
    kind = "heterogeneous" if heterogeneous else "homogeneous"
    instances = None if heterogeneous else HOMOGENEOUS_INSTANCES
    return _compare_many(kind, names, systems, instances, input_scale, spec,
                         orchestrator)


# --------------------------------------------------------------------------- #
# Figure 10: data-processing throughput                                        #
# --------------------------------------------------------------------------- #
def fig10a_homogeneous_throughput(
        workloads: Sequence[str] = tuple(POLYBENCH_ORDER),
        systems: Sequence[str] = tuple(SYSTEMS),
        instances: int = HOMOGENEOUS_INSTANCES,
        input_scale: float = 1.0,
        spec: Optional[HardwareSpec] = None,
        orchestrator: Optional[ExperimentOrchestrator] = None
        ) -> Dict[str, Dict[str, float]]:
    """Throughput (MB/s) of every system for each homogeneous workload."""
    comparisons = _compare_many("homogeneous", workloads, systems,
                                instances, input_scale, spec, orchestrator)
    return {name: {s: comparisons[name].throughput(s) for s in systems}
            for name in workloads}


def fig10b_heterogeneous_throughput(
        mixes: Sequence[str] = tuple(MIX_ORDER),
        systems: Sequence[str] = tuple(SYSTEMS),
        instances_per_kernel: int = HETEROGENEOUS_INSTANCES_PER_KERNEL,
        input_scale: float = 1.0,
        spec: Optional[HardwareSpec] = None,
        orchestrator: Optional[ExperimentOrchestrator] = None
        ) -> Dict[str, Dict[str, float]]:
    """Throughput (MB/s) of every system for each heterogeneous mix."""
    comparisons = _compare_many("heterogeneous", mixes, systems,
                                instances_per_kernel, input_scale, spec,
                                orchestrator)
    return {mix: {s: comparisons[mix].throughput(s) for s in systems}
            for mix in mixes}


# --------------------------------------------------------------------------- #
# Figure 11: latency (min / avg / max, normalized to SIMD)                     #
# --------------------------------------------------------------------------- #
def fig11_latency(workloads: Sequence[str],
                  heterogeneous: bool = False,
                  systems: Sequence[str] = tuple(SYSTEMS),
                  input_scale: float = 1.0,
                  spec: Optional[HardwareSpec] = None,
                  orchestrator: Optional[ExperimentOrchestrator] = None
                  ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Kernel latency statistics normalized to SIMD (Fig. 11a/11b)."""
    comparisons = _compare_flavor_many(heterogeneous, workloads, systems,
                                       input_scale, spec, orchestrator)
    return {name: comparisons[name].normalized_latency("SIMD")
            for name in workloads}


# --------------------------------------------------------------------------- #
# Figure 12: CDF of kernel completion times                                    #
# --------------------------------------------------------------------------- #
def fig12_completion_cdf(workload: str = "ATAX",
                         heterogeneous: bool = False,
                         systems: Sequence[str] = tuple(SYSTEMS),
                         input_scale: float = 1.0,
                         spec: Optional[HardwareSpec] = None,
                         orchestrator: Optional[ExperimentOrchestrator] = None
                         ) -> Dict[str, List[Tuple[float, int]]]:
    """(completion time, #kernels completed) series per system (Fig. 12)."""
    comparison = _compare_flavor_many(heterogeneous, [workload], systems,
                                      input_scale, spec,
                                      orchestrator)[workload]
    out: Dict[str, List[Tuple[float, int]]] = {}
    for system in systems:
        completions = comparison.reports[system].completion_times
        out[system] = [(t, i + 1) for i, t in enumerate(sorted(completions))]
    return out


# --------------------------------------------------------------------------- #
# Figure 13: energy decomposition (normalized to SIMD)                         #
# --------------------------------------------------------------------------- #
def fig13_energy_breakdown(workloads: Sequence[str],
                           heterogeneous: bool = False,
                           systems: Sequence[str] = tuple(SYSTEMS),
                           input_scale: float = 1.0,
                           spec: Optional[HardwareSpec] = None,
                           orchestrator: Optional[ExperimentOrchestrator] = None
                           ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Energy split into data movement / computation / storage access.

    Every bucket is normalized to the total energy of SIMD for the same
    workload, as in the paper's Figure 13.
    """
    comparisons = _compare_flavor_many(heterogeneous, workloads, systems,
                                       input_scale, spec, orchestrator)
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in workloads:
        comparison = comparisons[name]
        simd_total = comparison.reports["SIMD"].energy.total \
            if "SIMD" in comparison.reports else None
        per_system: Dict[str, Dict[str, float]] = {}
        for system in systems:
            energy = comparison.reports[system].energy
            denom = simd_total if simd_total else energy.total or 1.0
            per_system[system] = {
                "data_movement": energy.data_movement / denom,
                "computation": energy.computation / denom,
                "storage_access": energy.storage_access / denom,
                "total": energy.total / denom,
            }
        results[name] = per_system
    return results


# --------------------------------------------------------------------------- #
# Figure 14: processor (LWP) utilization                                       #
# --------------------------------------------------------------------------- #
def fig14_utilization(workloads: Sequence[str],
                      heterogeneous: bool = False,
                      systems: Sequence[str] = tuple(SYSTEMS),
                      input_scale: float = 1.0,
                      spec: Optional[HardwareSpec] = None,
                      orchestrator: Optional[ExperimentOrchestrator] = None
                      ) -> Dict[str, Dict[str, float]]:
    """Average LWP utilization (%) per system (Fig. 14a/14b)."""
    comparisons = _compare_flavor_many(heterogeneous, workloads, systems,
                                       input_scale, spec, orchestrator)
    return {name: {s: comparisons[name].utilization(s) * 100.0
                   for s in systems}
            for name in workloads}


# --------------------------------------------------------------------------- #
# Figure 15: functional-unit utilization and power over time                   #
# --------------------------------------------------------------------------- #
@dataclass
class TimeSeriesResult:
    """Resampled FU-utilization and power traces for one system (Fig. 15)."""

    system: str
    makespan_s: float
    fu_times: List[float] = field(default_factory=list)
    fu_values: List[float] = field(default_factory=list)
    power_times: List[float] = field(default_factory=list)
    power_values: List[float] = field(default_factory=list)

    @property
    def peak_power_w(self) -> float:
        return max(self.power_values) if self.power_values else 0.0

    @property
    def mean_active_fus(self) -> float:
        if not self.fu_values:
            return 0.0
        return sum(self.fu_values) / len(self.fu_values)


def fig15_timeseries(workload: str = "MX1",
                     systems: Sequence[str] = ("SIMD", "IntraO3"),
                     input_scale: float = 1.0,
                     sample_points: int = 200,
                     spec: Optional[HardwareSpec] = None,
                     orchestrator: Optional[ExperimentOrchestrator] = None
                     ) -> Dict[str, TimeSeriesResult]:
    """FU-utilization and power time series for SIMD vs. IntraO3 (Fig. 15)."""
    comparison = _compare_many("heterogeneous", [workload], systems, None,
                               input_scale, spec, orchestrator,
                               track_power_series=True)[workload]
    out: Dict[str, TimeSeriesResult] = {}
    for system in systems:
        report = comparison.reports[system]
        result = TimeSeriesResult(system=system, makespan_s=report.makespan_s)
        step = max(report.makespan_s / sample_points, 1e-6)
        if report.fu_series is not None and len(report.fu_series):
            resampled = report.fu_series.resample(step, end=report.makespan_s)
            result.fu_times = resampled.times()
            result.fu_values = resampled.values()
        if report.power_series is not None and len(report.power_series):
            resampled = report.power_series.resample(step,
                                                     end=report.makespan_s)
            result.power_times = resampled.times()
            result.power_values = resampled.values()
        out[system] = result
    return out


# --------------------------------------------------------------------------- #
# Figure 16: graph / big-data applications                                     #
# --------------------------------------------------------------------------- #
def fig16_realworld(workloads: Sequence[str] = tuple(REALWORLD_ORDER),
                    systems: Sequence[str] = tuple(SYSTEMS),
                    instances: int = HOMOGENEOUS_INSTANCES,
                    input_scale: float = 1.0,
                    spec: Optional[HardwareSpec] = None,
                    orchestrator: Optional[ExperimentOrchestrator] = None
                    ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Throughput and normalized energy for bfs/wc/nn/nw/path (Fig. 16)."""
    comparisons = _compare_many("realworld", workloads, systems, instances,
                                input_scale, spec, orchestrator)
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in workloads:
        comparison = comparisons[name]
        simd_energy = comparison.energy("SIMD") if "SIMD" in systems else None
        per_system: Dict[str, Dict[str, float]] = {}
        for system in systems:
            report = comparison.reports[system]
            denom = simd_energy if simd_energy else report.energy_joules or 1.0
            per_system[system] = {
                "throughput_mb_per_s": report.throughput_mb_per_s,
                "normalized_energy": report.energy_joules / denom,
            }
        results[name] = per_system
    return results


# --------------------------------------------------------------------------- #
# Headline numbers (abstract / conclusion)                                     #
# --------------------------------------------------------------------------- #
def headline_summary(workloads: Sequence[str] = ("ATAX", "MVT", "SYRK", "3MM"),
                     input_scale: float = 0.1,
                     spec: Optional[HardwareSpec] = None,
                     orchestrator: Optional[ExperimentOrchestrator] = None
                     ) -> Dict[str, float]:
    """Average IntraO3-vs-SIMD throughput gain and energy saving.

    The paper's headline: +127% bandwidth, -78.4% energy.  This helper
    reports the same two aggregates over a representative workload subset.
    """
    gains: List[float] = []
    savings: List[float] = []
    comparisons = _compare_many("homogeneous", workloads, ("SIMD", "IntraO3"),
                                HOMOGENEOUS_INSTANCES, input_scale, spec,
                                orchestrator)
    for name in workloads:
        simd = comparisons[name].reports["SIMD"]
        intra = comparisons[name].reports["IntraO3"]
        if simd.throughput_mb_per_s > 0:
            gains.append(intra.throughput_mb_per_s / simd.throughput_mb_per_s)
        if simd.energy_joules > 0:
            savings.append(1.0 - intra.energy_joules / simd.energy_joules)
    return {
        "mean_throughput_gain": (sum(gains) / len(gains)) if gains else 0.0,
        "mean_energy_saving": (sum(savings) / len(savings)) if savings else 0.0,
    }
