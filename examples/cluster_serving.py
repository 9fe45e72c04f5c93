#!/usr/bin/env python3
"""Cluster scale-out: shard open-loop serving across a fleet of devices.

Demonstrates the ``repro.cluster`` layer end to end:

1. a fleet-sizing scaling sweep through the experiment orchestrator —
   goodput and p99 vs. device count at a fixed offered load past the
   single-device knee;
2. a placement-policy comparison (round-robin vs. least-outstanding vs.
   tenant-affinity vs. power-aware) at the same load;
3. a failure drill — one device of four fails mid-run; its backlog is
   rerouted and every admitted request still completes.

Optionally writes the scaling summary as JSON (used by CI to publish the
fleet numbers as a workflow artifact):

    python examples/cluster_serving.py [--summary-json PATH]
"""

import argparse
import json

from repro import PlatformConfig, run_cluster
from repro.eval import (
    ExperimentOrchestrator,
    format_scaling_sweep,
    scaling_efficiency,
    scaling_sweep,
)
from repro.platform import ClusterConfig, FaultSpec
from repro.policy import PolicySpec
from repro.serve import ServingScenario, TenantSpec

INPUT_SCALE = 0.01
SLO_S = 0.25
OFFERED_RPS = 720.0             # past the ~240 rps single-device knee
DEVICE_COUNTS = (1, 2, 4)
TENANTS = (TenantSpec("tenant-a", weight=1.0, slo_s=SLO_S),
           TenantSpec("tenant-b", weight=1.0, slo_s=SLO_S))

SCENARIO = ServingScenario(
    process="poisson", offered_rps=OFFERED_RPS, duration_s=1.0, seed=3,
    tenants=TENANTS,
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 24}))

DEVICE = PlatformConfig(system="IntraO3", input_scale=INPUT_SCALE)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--summary-json", default=None,
                        help="write the scaling summary to this JSON file")
    args = parser.parse_args()

    orchestrator = ExperimentOrchestrator(workers=4)

    print("== Fleet scaling sweep ==")
    points = scaling_sweep(DEVICE_COUNTS, OFFERED_RPS, scenario=SCENARIO,
                           device_config=DEVICE,
                           orchestrator=orchestrator)
    print(format_scaling_sweep(points, slo_s=SLO_S))

    print("\n== Placement policies @ 4 devices ==")
    for placement in ("round_robin", "least_outstanding",
                      "tenant_affinity", "power_aware"):
        cluster = ClusterConfig.homogeneous(4, DEVICE, placement=placement)
        report = run_cluster(SCENARIO, cluster)
        p99 = report.p99_s
        print(f"  {placement:>18}: goodput {report.goodput_rps:7.1f} rps, "
              f"p99 {'n/a' if p99 is None else f'{p99 * 1e3:6.1f} ms'}, "
              f"routed {report.placement_stats['routed']}")

    # A saturated two-device fleet keeps real backlogs queued, so the
    # failure visibly reroutes requests (an idle fleet has nothing queued).
    print("\n== Failure drill: device 1 of 2 fails mid-run ==")
    drill = ClusterConfig.homogeneous(
        2, DEVICE, faults=(FaultSpec(0.4, 1, "failed"),))
    report = run_cluster(SCENARIO, drill)
    print(f"  admitted {report.admitted}, completed {report.completed} "
          f"(dropped {report.admitted - report.completed}), "
          f"rerouted {report.reroutes} queued requests off the failed "
          f"device")
    print(f"  final health: {report.placement_stats['final_health']}")

    if args.summary_json:
        summary = {
            "slo_s": SLO_S,
            "input_scale": INPUT_SCALE,
            "offered_rps": OFFERED_RPS,
            "device_counts": list(DEVICE_COUNTS),
            "speedups": scaling_efficiency(points),
            "points": [vars(point) for point in points],
            "failure_drill": {
                "admitted": report.admitted,
                "completed": report.completed,
                "reroutes": report.reroutes,
                "health_events": report.health_events,
            },
        }
        with open(args.summary_json, "w") as handle:
            json.dump(summary, handle, indent=2)
        print(f"\nwrote scaling summary to {args.summary_json}")


if __name__ == "__main__":
    main()
