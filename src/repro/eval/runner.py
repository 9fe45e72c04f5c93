"""Evaluation runner: execute one workload on any of the five systems.

The paper compares five accelerated systems (Section 5): ``SIMD`` (the
conventional baseline) and the four FlashAbacus schedulers ``InterSt``,
``InterDy``, ``IntraIo`` and ``IntraO3``.  This module provides a uniform
entry point used by every experiment and benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..core.accelerator import ExecutionReport, FlashAbacusAccelerator
from ..core.kernel import Kernel
from ..baseline.system import BaselineSystem
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


def run_system(config: PlatformConfig, kernels: Sequence[Kernel],
               workload_name: str = "workload") -> ExecutionReport:
    """Run ``kernels`` on the platform ``config`` describes (``SIMD`` or a
    FlashAbacus scheduler) and return its report."""
    if config.is_baseline:
        system = BaselineSystem(config=config)
        report = system.run_workload(kernels, workload_name)
    else:
        system = FlashAbacusAccelerator(config=config)
        report = system.run_workload(kernels, workload_name)
        system.shutdown()
    system.env.close()
    return report


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
