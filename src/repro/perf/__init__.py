"""Wall-clock performance subsystem: timers, report schema, regression policy.

The simulator's own speed is a first-class, measured property of this
reproduction (the ROADMAP's "as fast as the hardware allows").  This
package provides the building blocks; the runnable microbenchmarks live
in ``benchmarks/perf/`` and emit ``BENCH_PERF.json`` at the repo root.
See PERFORMANCE.md for the hot-path map, the profiling workflow, and the
regression policy.
"""

from .regression import (
    ENGINE_SPEEDUP_THRESHOLD,
    PARALLEL_SPEEDUP_THRESHOLD,
    Regression,
    Threshold,
    check_regression,
    check_thresholds,
    parallel_speedup_threshold,
)
from .report import (
    SCHEMA_VERSION,
    PerfMetric,
    PerfReport,
    diff_reports,
)
from .timers import Measurement, WallTimer, measure, measure_ab

__all__ = [
    "ENGINE_SPEEDUP_THRESHOLD",
    "PARALLEL_SPEEDUP_THRESHOLD",
    "Measurement",
    "PerfMetric",
    "PerfReport",
    "Regression",
    "SCHEMA_VERSION",
    "Threshold",
    "WallTimer",
    "check_regression",
    "check_thresholds",
    "diff_reports",
    "measure",
    "measure_ab",
    "parallel_speedup_threshold",
]
