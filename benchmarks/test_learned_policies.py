"""Learned policies: the online-learning claim, asserted.

The ISSUE-9 acceptance bar for the learned species
(:mod:`repro.policy.learned`): across the three drift scenarios of the
bake-off (bursty MMPP admission, tenant-churn dispatch, heterogeneous
fleet placement) at least one learned policy must beat the best static
policy on goodput at equal SLO compliance — and the win must be
reproducible byte-for-byte under the same seed, because a learned
policy is still a pure function of (scenario, config, seed).

The bake-off runs in ``quick`` mode (half-duration scenarios) so the
whole benchmark stays inside the CI budget; ``examples/
learned_policies.py`` prints the full-duration numbers.
"""

import json

from repro.cluster import run_cluster
from repro.platform.cluster import ClusterConfig
from repro.eval import (
    LEARNED_SCENARIOS,
    format_learned,
    hetero_devices,
    hetero_scenario,
    learned_bakeoff,
)
from repro.policy import PolicySpec

from bench_common import BENCH_ORCHESTRATOR, run_once


def test_learned_beats_best_static_at_equal_compliance(benchmark):
    """Somewhere in the drift scenarios, learning earns its keep."""
    comparisons = run_once(benchmark, learned_bakeoff, quick=True,
                           orchestrator=BENCH_ORCHESTRATOR)
    print("\n" + format_learned(comparisons))
    assert [c.scenario for c in comparisons] == list(LEARNED_SCENARIOS)
    for comp in comparisons:
        # Every scenario fields exactly one learned challenger against
        # at least three static incumbents of its domain.
        assert len(comp.learned_cells) == 1, comp.scenario
        assert len(comp.static_cells) >= 3, comp.scenario
    verdicts = {c.scenario: c.beats_best_static() for c in comparisons}
    # The headline: the placement bandit learns the straggler and the
    # dispatch bandit tracks the tenant churn.  (Bursty admission is
    # allowed to lose: a well-tuned static depth is a strong incumbent
    # under a stationary burst profile.)
    assert verdicts["churn"], verdicts
    assert verdicts["hetero"], verdicts
    assert any(verdicts.values())


def test_learned_run_is_byte_identical_under_same_seed(benchmark):
    """Same seed, same scenario: reports match byte-for-byte.

    Exploration draws come from a seeded RNG and feedback arrives in
    simulation order, so a repeat run must reproduce every decision —
    including the learned state snapshots (weights, counts, epsilon).
    """
    scenario = hetero_scenario(offered_rps=200.0, duration_s=1.0)
    cluster = ClusterConfig(devices=hetero_devices(),
                            placement=PolicySpec("linucb_placement"))
    first = run_once(benchmark, run_cluster, scenario, cluster)
    second = run_cluster(scenario, cluster)
    assert first.learned is not None
    assert "placement" in first.learned
    assert json.dumps(first.to_dict(), sort_keys=True) \
        == json.dumps(second.to_dict(), sort_keys=True)
