"""Perf-regression policy: thresholds over metrics and snapshot pairs.

Two comparison modes, matching how ``BENCH_PERF.json`` is used:

* **Embedded-baseline thresholds** (:func:`check_thresholds`) — a metric
  carries its own ``baseline`` measured in the same run (the seed-engine
  snapshot); a :class:`Threshold` demands a minimum improvement ratio.
  This is how the "engine ≥ 2x over seed" claim is enforced.
* **Snapshot-to-snapshot regression** (:func:`check_regression`) — two
  ``BENCH_PERF.json`` files (e.g. the committed one and a fresh local
  run) are compared metric-by-metric; any metric that got worse by more
  than ``tolerance`` is flagged.  This is the PR-over-PR trajectory
  check described in PERFORMANCE.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from .report import PerfReport, diff_reports


@dataclass(frozen=True)
class Threshold:
    """Minimum improvement a metric must show over its embedded baseline."""

    metric: str
    min_ratio: float

    def check(self, report: PerfReport) -> Optional[str]:
        """Return a violation message, or ``None`` when satisfied."""
        entry = report.get(self.metric)
        if entry is None:
            return f"{self.metric}: metric missing from report"
        ratio = entry.ratio
        if ratio is None:
            return f"{self.metric}: no baseline recorded"
        if ratio < self.min_ratio:
            return (f"{self.metric}: improvement {ratio:.2f}x is below the "
                    f"required {self.min_ratio:.2f}x "
                    f"(value {entry.value:g}, baseline {entry.baseline:g})")
        return None


#: The engine microbenchmark must beat the seed engine at least this much
#: (the PR-4 tentpole claim, re-checked by ``benchmarks/perf``).
ENGINE_SPEEDUP_THRESHOLD = Threshold("engine_events_per_sec", 2.0)

def parallel_speedup_threshold(cpus: Optional[int] = None) -> Threshold:
    """The host-aware floor on parallel-over-serial cluster speedup.

    The epoch-parallel runner's baseline is the serial session on the
    same fleet, measured in the same perfbench run, so the ratio *is*
    the parallel speedup.  On a multi-core host the fork pool must buy a
    real win: ≥ 1.5x.  A single-core host cannot execute shards
    concurrently, but the parallel path must still beat serial outright
    (≥ 1.1x): per-shard event heaps are smaller and adaptive epochs run
    whole fault-free scenarios in one burst.
    """
    usable = cpus if cpus is not None else (os.cpu_count() or 1)
    return Threshold("cluster_parallel_requests_per_sec",
                     1.5 if usable >= 2 else 1.1)


#: The floor on the current host (import-time convenience; call
#: :func:`parallel_speedup_threshold` to evaluate for a specific CPU
#: count).
PARALLEL_SPEEDUP_THRESHOLD = parallel_speedup_threshold()


def check_thresholds(report: PerfReport,
                     thresholds: List[Threshold]) -> List[str]:
    """Evaluate embedded-baseline thresholds; returns violation messages."""
    violations = []
    for threshold in thresholds:
        message = threshold.check(report)
        if message is not None:
            violations.append(message)
    return violations


@dataclass
class Regression:
    """One metric that got worse between two snapshots."""

    metric: str
    old: float
    new: float
    speedup: float   # < 1.0 means the metric regressed

    def __str__(self) -> str:
        return (f"{self.metric}: {self.old:g} -> {self.new:g} "
                f"({self.speedup:.2f}x)")


def check_regression(old: PerfReport, new: PerfReport,
                     tolerance: float = 0.15,
                     overrides: Optional[Dict[str, float]] = None
                     ) -> List[Regression]:
    """Compare two snapshots; flag metrics that regressed past tolerance.

    ``tolerance`` is the allowed fractional slowdown before a metric is
    flagged (0.15 = up to 15% worse passes, absorbing host noise);
    ``overrides`` maps metric names to per-metric tolerances.  Metrics
    present in only one snapshot are ignored — adding or retiring a
    benchmark is not a regression.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be in [0, 1)")
    regressions: List[Regression] = []
    for name, entry in diff_reports(old, new).items():
        speedup = entry.get("speedup")
        if speedup is None:
            continue
        allowed = (overrides or {}).get(name, tolerance)
        if speedup < 1.0 - allowed:
            regressions.append(Regression(
                metric=name, old=entry["old"], new=entry["new"],  # type: ignore[arg-type]
                speedup=speedup))  # type: ignore[arg-type]
    return regressions
