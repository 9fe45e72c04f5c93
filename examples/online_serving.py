#!/usr/bin/env python3
"""Online serving: open-loop traffic, admission control, saturation sweep.

Demonstrates the ``repro.serve`` subsystem end to end:

1. one serving run — Poisson arrivals from two tenants against the
   ``InterDy`` scheduler, with per-tenant SLO accounting
   (p50/p95/p99/p99.9 latency, goodput, violations);
2. a bursty (MMPP) run on the same platform, showing the tail moving;
3. a saturation sweep through the experiment orchestrator — offered load
   vs. goodput and p99 latency for the baseline and two schedulers, with
   the per-system SLO knee.

Optionally writes the sweep summary as JSON (used by CI to publish the
serving numbers as a workflow artifact):

    python examples/online_serving.py [--summary-json PATH]
"""

import argparse
import json

from repro import PlatformConfig
from repro.eval import (
    ExperimentOrchestrator,
    find_knee,
    format_saturation_sweep,
    saturation_sweep,
)
from repro.policy import PolicySpec
from repro.serve import ServingScenario, TenantSpec, run_serving

# Scale the Table-2 data sets down so the example finishes in seconds;
# the scheduling behavior and every reported ratio survive the scaling.
INPUT_SCALE = 0.01
SLO_S = 0.25
TENANTS = (TenantSpec("tenant-a", weight=2.0, slo_s=SLO_S),
           TenantSpec("tenant-b", weight=1.0, slo_s=SLO_S))
SWEEP_RATES = (20.0, 60.0, 120.0, 240.0)
SWEEP_SYSTEMS = ("SIMD", "InterDy", "IntraO3")


def show_report(title, report):
    print(f"\n== {title} ==")
    print(f"offered {report.offered} requests "
          f"({report.offered_rps:.1f} rps), admitted {report.admitted}, "
          f"rejected {report.rejected}, completed {report.completed}")
    print(f"goodput {report.goodput_rps:.1f} rps, "
          f"SLO violations {report.slo_violations}")
    for tenant, stats in report.per_tenant.items():
        p99 = stats["p99_s"]
        print(f"  {tenant}: completed {stats['completed']}, "
              f"goodput {stats['goodput_rps']:.1f} rps, "
              f"p99 {'n/a' if p99 is None else f'{p99 * 1e3:.1f} ms'}")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--summary-json", default=None,
                        help="write the sweep summary to this JSON file")
    args = parser.parse_args()

    config = PlatformConfig(system="InterDy", input_scale=INPUT_SCALE)
    steady = ServingScenario(process="poisson", offered_rps=120.0,
                             duration_s=2.0, seed=7, tenants=TENANTS)
    show_report("Poisson @ 120 rps on InterDy",
                run_serving(steady, config=config))

    bursty = steady.with_overrides(process="mmpp", offered_rps=60.0,
                                   mmpp_burst_factor=6.0,
                                   mmpp_burst_dwell_s=0.3)
    show_report("MMPP (bursty) @ 60 rps base on InterDy",
                run_serving(bursty, config=config))

    print("\n== Saturation sweep ==")
    orchestrator = ExperimentOrchestrator(workers=4)
    sweep_scenario = steady.with_overrides(
        duration_s=1.5, admission=PolicySpec("queue_depth", {"max_tenant_depth": 24}))
    curves = saturation_sweep(
        SWEEP_RATES, SWEEP_SYSTEMS, scenario=sweep_scenario,
        config=PlatformConfig(input_scale=INPUT_SCALE),
        orchestrator=orchestrator)
    print(format_saturation_sweep(curves, slo_s=SLO_S))

    if args.summary_json:
        summary = {
            "slo_s": SLO_S,
            "input_scale": INPUT_SCALE,
            "rates_rps": list(SWEEP_RATES),
            "knees_rps": {system: find_knee(points, SLO_S)
                          for system, points in curves.items()},
            "curves": {system: [vars(point) for point in points]
                       for system, points in curves.items()},
        }
        with open(args.summary_json, "w") as handle:
            json.dump(summary, handle, indent=2)
        print(f"\nwrote sweep summary to {args.summary_json}")


if __name__ == "__main__":
    main()
