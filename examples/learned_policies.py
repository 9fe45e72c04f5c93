#!/usr/bin/env python3
"""Learned policies: online-learning bandits vs. the static registry.

Demonstrates the learned policy species (``repro.policy.learned``) end
to end:

1. the learned-vs-static bake-off across the three drift scenarios —
   bursty MMPP admission, tenant-churn dispatch, heterogeneous-fleet
   placement — each run as one single-axis policy grid where the
   learned policy is just another cell, judged on goodput at equal SLO
   compliance;
2. one within-run learning curve: the heterogeneous placement scenario
   binned into arrival windows, showing SLO compliance climbing as the
   placement bandit's feedback count grows;
3. the determinism receipt: the same learned run twice, byte-identical
   reports (exploration is seeded, never wall clock).

Optionally writes the bake-off as JSON (used by CI to publish the
learned-vs-static numbers as a workflow artifact):

    python examples/learned_policies.py [--quick] [--summary-json PATH]
"""

import argparse
import json

from repro.cluster import run_cluster
from repro.eval import (
    ExperimentOrchestrator,
    bursty_scenario,
    format_learned,
    hetero_devices,
    hetero_scenario,
    learned_bakeoff,
    learning_curve,
)
from repro.platform import ClusterConfig
from repro.policy import PolicySpec


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="shrink every scenario for a CI smoke run")
    parser.add_argument("--summary-json", default=None,
                        help="write the bake-off summary to this JSON file")
    args = parser.parse_args()

    orchestrator = ExperimentOrchestrator(workers=4)

    print("== Learned vs. static policies ==")
    comparisons = learned_bakeoff(quick=args.quick,
                                  orchestrator=orchestrator)
    print(format_learned(comparisons))

    print("\n== Learning curve (adaptive admission, single run) ==")
    curve_scenario = bursty_scenario(
        duration_s=2.0 if args.quick else 4.0).with_overrides(
        admission=PolicySpec("adaptive_admission"))
    curve = learning_curve(curve_scenario, windows=8)
    for window in curve:
        bar = "#" * round(40 * window.slo_compliance)
        print(f"  [{window.start_s:4.2f}s..{window.end_s:4.2f}s)  "
              f"offered {window.offered:4d}  "
              f"slo_ok {100 * window.slo_compliance:6.2f}%  {bar}")

    print("\n== Placement bandit state (hetero fleet) ==")
    scenario = hetero_scenario(duration_s=2.0 if args.quick else 4.0)
    cluster = ClusterConfig(devices=hetero_devices(),
                            placement=PolicySpec("linucb_placement"))
    report = run_cluster(scenario, cluster)
    snapshot = report.learned["placement"]
    print(f"  placement bandit: {snapshot['decisions']} decisions, "
          f"{snapshot['feedback_events']} feedback events, "
          f"{snapshot['explore_count']} explored")
    for index in sorted(snapshot["arms"], key=int):
        arm = snapshot["arms"][index]
        theta = ", ".join(f"{t:.4f}" for t in arm["theta"])
        print(f"  arm {index}: {arm['count']:5d} obs  theta=[{theta}]")

    print("\n== Determinism receipt ==")
    repeat = run_cluster(scenario, cluster)
    first = json.dumps(report.to_dict(), sort_keys=True)
    second = json.dumps(repeat.to_dict(), sort_keys=True)
    print(f"  same-seed repeat byte-identical: {first == second}")

    if args.summary_json:
        payload = {
            "quick": args.quick,
            "comparisons": [
                {
                    "scenario": comp.scenario,
                    "domain": comp.domain,
                    "beats_best_static": comp.beats_best_static(),
                    "cells": [vars(cell) for cell in comp.cells],
                }
                for comp in comparisons
            ],
            "determinism": {"byte_identical": first == second},
        }
        with open(args.summary_json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote learned summary to {args.summary_json}")


if __name__ == "__main__":
    main()
