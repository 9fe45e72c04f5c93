"""Evaluation runner: execute one workload on any of the five systems.

The paper compares five accelerated systems (Section 5): ``SIMD`` (the
conventional baseline) and the four FlashAbacus schedulers ``InterSt``,
``InterDy``, ``IntraIo`` and ``IntraO3``.  This module provides a uniform
entry point used by every experiment and benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..core.accelerator import ExecutionReport, run_flashabacus
from ..core.kernel import Kernel
from ..baseline.system import run_baseline
from ..hw.spec import HardwareSpec
from ..platform.config import (
    BASELINE_SYSTEM,
    FLASHABACUS_SCHEDULERS,
    PlatformConfig,
)

#: The five accelerated systems of Section 5, in the paper's plot order
#: (derived from the platform layer's single source of truth).
SYSTEMS: List[str] = [BASELINE_SYSTEM, *FLASHABACUS_SCHEDULERS]

#: FlashAbacus-only subset.
FLASHABACUS_SYSTEMS: List[str] = list(FLASHABACUS_SCHEDULERS)


def run_system(system: Union[str, PlatformConfig], kernels: Sequence[Kernel],
               workload_name: str = "workload",
               spec: Optional[HardwareSpec] = None,
               track_power_series: bool = False,
               config: Optional[PlatformConfig] = None) -> ExecutionReport:
    """Run ``kernels`` on one of the five systems and return its report.

    ``system`` may be a system name or a full
    :class:`~repro.platform.PlatformConfig` (equivalently passed via the
    ``config`` keyword); with a config, the platform is assembled by
    :class:`~repro.platform.PlatformBuilder` from that description.
    """
    if isinstance(system, PlatformConfig):
        if config is not None:
            raise ValueError("pass the PlatformConfig either positionally "
                             "or as config=, not both")
        config, system = system, system.system
    if config is None:
        # A bare name is just a default config for that system (unknown
        # names are rejected by PlatformConfig itself).
        config = PlatformConfig(system=system)
    # Explicit arguments are not silently dropped next to a config:
    # they override the corresponding config fields.
    config = config.merged(system=system, spec=spec,
                           track_power_series=track_power_series)
    if config.is_baseline:
        return run_baseline(kernels, workload_name, config=config)
    return run_flashabacus(kernels, workload_name=workload_name,
                           config=config)


@dataclass
class ComparisonResult:
    """Reports for one workload across several systems."""

    workload: str
    reports: Dict[str, ExecutionReport] = field(default_factory=dict)

    def throughput(self, system: str) -> float:
        return self.reports[system].throughput_mb_per_s

    def energy(self, system: str) -> float:
        return self.reports[system].energy_joules

    def utilization(self, system: str) -> float:
        return self.reports[system].worker_utilization

    def normalized_throughput(self, reference: str = "SIMD") -> Dict[str, float]:
        base = self.throughput(reference)
        return {name: (self.throughput(name) / base if base > 0 else 0.0)
                for name in self.reports}

    def normalized_energy(self, reference: str = "SIMD") -> Dict[str, float]:
        base = self.energy(reference)
        return {name: (self.energy(name) / base if base > 0 else 0.0)
                for name in self.reports}

    def normalized_latency(self, reference: str = "SIMD") -> Dict[str, Dict[str, float]]:
        """min/mean/max kernel latency of each system relative to ``reference``."""
        ref = self.reports[reference].latency_summary()
        out: Dict[str, Dict[str, float]] = {}
        for name, report in self.reports.items():
            summary = report.latency_summary()
            out[name] = {
                "min": summary.min / ref.min if ref.min > 0 else 0.0,
                "mean": summary.mean / ref.mean if ref.mean > 0 else 0.0,
                "max": summary.max / ref.max if ref.max > 0 else 0.0,
            }
        return out


def compare_systems(workload_name: str,
                    kernel_factory: Callable[[], Sequence[Kernel]],
                    systems: Sequence[str] = SYSTEMS,
                    spec: Optional[HardwareSpec] = None,
                    track_power_series: bool = False,
                    config: Optional[PlatformConfig] = None) -> ComparisonResult:
    """Run the same workload on several systems (fresh kernels per system).

    This is the low-level serial path for ad-hoc kernel factories.  The
    paper-figure sweeps go through
    :class:`repro.eval.orchestrator.ExperimentOrchestrator`, which adds
    result caching and process-parallel execution for declarative
    (:class:`~repro.eval.orchestrator.WorkloadSpec`-based) workloads.
    """
    result = ComparisonResult(workload=workload_name)
    for system in systems:
        kernels = list(kernel_factory())
        result.reports[system] = run_system(
            system, kernels, workload_name, spec=spec,
            track_power_series=track_power_series,
            config=(config.with_overrides(system=system)
                    if config is not None else None))
    return result
