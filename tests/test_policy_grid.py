"""Cross-layer policy-grid sweeps: spec expansion, caching, reporting."""

import pytest

from repro.eval import (
    ExperimentOrchestrator,
    PolicyGridPoint,
    best_by_goodput,
    format_policy_grid,
    policy_grid,
    policy_grid_specs,
)
from repro.platform import PlatformConfig
from repro.policy import PolicySpec
from repro.serve import ServingScenario, TenantSpec

SCENARIO = ServingScenario(
    process="poisson", offered_rps=80.0, duration_s=0.25, seed=9,
    tenants=(TenantSpec("a", 2.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 16}))

DEVICE = PlatformConfig(system="IntraO3", input_scale=0.01)

AXES = dict(
    schedulers=("InterDy", "IntraO3"),
    admissions=("queue_depth",
                PolicySpec("token_bucket",
                           {"rate_rps": 20.0, "burst": 4.0})),
    dispatches=("round_robin", "weighted_fair"),
    placements=("round_robin", "join_shortest_queue"),
)


def test_policy_grid_specs_expand_the_cross_product():
    grid = policy_grid_specs(scenario=SCENARIO, device_config=DEVICE,
                             device_count=2, **AXES)
    assert len(grid) == 16
    # Every cell keys differently (distinct cache identities).
    assert len({spec.key for _, spec in grid}) == 16
    # Cross-product order: scheduler outermost, placement innermost.
    assert [combo.scheduler.name for combo, _ in grid] \
        == ["InterDy"] * 8 + ["IntraO3"] * 8
    assert [combo.placement.name for combo, _ in grid[:2]] \
        == ["round_robin", "join_shortest_queue"]
    # Policy selections land in the right config layers.  A bare
    # "queue_depth" axis entry names the base scenario's admission
    # policy, so the base scenario's depth bound keeps applying.
    combo, spec = grid[1]
    assert spec.cluster.placement == PolicySpec("join_shortest_queue")
    assert spec.scenario.admission == SCENARIO.admission
    assert spec.scenario.admission.params == {"max_tenant_depth": 16}
    assert spec.scenario.dispatch_spec == PolicySpec("round_robin")
    assert spec.cluster.devices[0].system == "InterDy"
    # Cell 4 is the first token-bucket cell: the entry's spec replaces
    # the base admission outright.
    _, bucketed = grid[4]
    assert bucketed.scenario.admission == PolicySpec(
        "token_bucket", {"rate_rps": 20.0, "burst": 4.0})


def test_policy_grid_rejects_a_scheduler_entry_with_params():
    with pytest.raises(ValueError, match="IntraO3"):
        policy_grid_specs(
            schedulers=(PolicySpec("IntraO3", {"depth": 2}),),
            scenario=SCENARIO, device_config=DEVICE)


def test_policy_grid_rejects_empty_axes_and_bad_device_count():
    with pytest.raises(ValueError):
        policy_grid_specs(schedulers=(), scenario=SCENARIO)
    with pytest.raises(ValueError):
        policy_grid_specs(scenario=SCENARIO, device_count=0)


def test_policy_grid_runs_once_then_serves_cache_hits(tmp_path):
    orchestrator = ExperimentOrchestrator(cache_dir=tmp_path)
    points = policy_grid(scenario=SCENARIO, device_config=DEVICE,
                         device_count=2, orchestrator=orchestrator,
                         **AXES)
    assert len(points) == 16
    assert orchestrator.simulations_run == 16
    for point in points:
        assert point.offered_rps > 0
        assert point.admitted + point.rejected > 0
    # The token-bucket axis actually bites: each of the two devices sees
    # ~40 rps of the 80 rps stream (admission is per-device) against a
    # 20 rps refill, so part of the stream must be rejected.
    bucketed = [p for p in points if p.admission == "token_bucket"]
    assert bucketed and all(p.rejected > 0 for p in bucketed)
    unbucketed = [p for p in points if p.admission == "queue_depth"]
    assert {p.rejected for p in unbucketed} == {0}

    # Re-running the identical grid is pure cache hits: same points,
    # zero new simulations.
    before_hits = orchestrator.cache.hits
    again = policy_grid(scenario=SCENARIO, device_config=DEVICE,
                        device_count=2, orchestrator=orchestrator,
                        **AXES)
    assert orchestrator.simulations_run == 16
    assert orchestrator.cache.hits == before_hits + 16
    assert [vars(p) for p in again] == [vars(p) for p in points]

    # A fresh orchestrator sharing the cache directory is served from
    # disk without simulating anything.
    rebuilt = ExperimentOrchestrator(cache_dir=tmp_path)
    third = policy_grid(scenario=SCENARIO, device_config=DEVICE,
                        device_count=2, orchestrator=rebuilt, **AXES)
    assert rebuilt.simulations_run == 0
    assert [vars(p) for p in third] == [vars(p) for p in points]


def test_format_policy_grid_renders_rows_and_best_line():
    points = [
        PolicyGridPoint("IntraO3", "queue_depth", "round_robin",
                        "round_robin", offered_rps=100.0,
                        goodput_rps=90.0, admitted=100, rejected=0,
                        completed=100, slo_violations=10, p50_s=0.05,
                        p99_s=0.2, energy_j=5.0),
        PolicyGridPoint("InterDy", "deadline", "weighted_fair",
                        "join_shortest_queue", offered_rps=100.0,
                        goodput_rps=95.0, admitted=98, rejected=2,
                        completed=98, slo_violations=3, p50_s=0.04,
                        p99_s=0.4, energy_j=4.5),
    ]
    text = format_policy_grid(points, slo_s=0.25)
    assert "join_shortest_queue" in text
    assert "p99<=SLO" in text
    # The higher-goodput combo misses the SLO, so the compliant one wins.
    assert ("best SLO-compliant combination: "
            "IntraO3/queue_depth/round_robin/round_robin") in text
    # Without an SLO the raw goodput winner is reported.
    assert ("best goodput: InterDy/deadline/weighted_fair/"
            "join_shortest_queue") in format_policy_grid(points)


def test_format_policy_grid_reports_no_compliant_combination():
    point = PolicyGridPoint("IntraO3", "none", "round_robin",
                            "round_robin", offered_rps=100.0,
                            goodput_rps=10.0, admitted=100, rejected=0,
                            completed=100, slo_violations=90, p50_s=0.5,
                            p99_s=2.0, energy_j=5.0)
    text = format_policy_grid([point], slo_s=0.25)
    assert "no combination meets the SLO" in text


def test_parameterized_cells_stay_distinguishable():
    from repro.eval.policy_grid import describe_policy

    assert describe_policy("queue_depth", {}) == "queue_depth"
    assert describe_policy("queue_depth", {"max_tenant_depth": 16}) \
        == "queue_depth{max_tenant_depth=16}"
    # Two parameterizations of one policy name on the same axis render
    # as distinct rows and a param-qualified best line.
    grid = policy_grid_specs(
        schedulers=("IntraO3",),
        admissions=(PolicySpec("queue_depth", {"max_tenant_depth": 4}),
                    PolicySpec("queue_depth", {"max_tenant_depth": 64})),
        dispatches=("round_robin",), placements=("round_robin",),
        scenario=SCENARIO, device_config=DEVICE)
    labels = {describe_policy(combo.admission.name, combo.admission.params)
              for combo, _ in grid}
    assert len(labels) == 2
    points = [
        PolicyGridPoint("IntraO3", "queue_depth", "round_robin",
                        "round_robin", offered_rps=100.0,
                        goodput_rps=50.0 + depth, admitted=100, rejected=0,
                        completed=100, slo_violations=0, p50_s=0.01,
                        p99_s=0.02, energy_j=1.0,
                        admission_params={"max_tenant_depth": depth})
        for depth in (4, 64)
    ]
    text = format_policy_grid(points, slo_s=0.25)
    assert "queue_depth{max_tenant_depth=4}" in text
    assert "best SLO-compliant combination: IntraO3/" \
           "queue_depth{max_tenant_depth=64}/round_robin/round_robin" in text


def test_learned_axis_entries_resolve_to_explicit_default_cache_keys():
    """A bare learned axis entry and one spelling out the constructor
    defaults are the *same* cell (same cache key): defaults are behavior
    for the learned species, so a since-retuned default can never be
    served a result cached under the old one."""
    from repro.policy import resolved_policy_spec

    def keys(admissions):
        grid = policy_grid_specs(
            schedulers=("IntraO3",), admissions=admissions,
            dispatches=("round_robin",), placements=("round_robin",),
            scenario=SCENARIO, device_config=DEVICE)
        return [spec.key for _, spec in grid]

    explicit = resolved_policy_spec("admission", "adaptive_admission")
    assert explicit.params["warmup"] == 32      # defaults materialized
    assert keys(["adaptive_admission"]) == keys([explicit])
    # A tuned warm-up is a different cell; so is any other learned knob.
    assert keys([PolicySpec("adaptive_admission", {"warmup": 2})]) \
        != keys(["adaptive_admission"])
    # Static entries keep their legacy spelling (and cache keys): a bare
    # static name must NOT grow explicit params.
    grid = policy_grid_specs(
        schedulers=("IntraO3",), admissions=("deadline",),
        dispatches=("round_robin",), placements=("round_robin",),
        scenario=SCENARIO, device_config=DEVICE)
    (combo, _), = grid
    assert combo.admission == PolicySpec("deadline")


def test_heterogeneous_devices_axis_builds_per_device_fleets():
    slow = DEVICE.with_overrides(input_scale=0.06)
    grid = policy_grid_specs(
        schedulers=("IntraO3",), admissions=("queue_depth",),
        dispatches=("round_robin",), placements=("round_robin",),
        scenario=SCENARIO, devices=(DEVICE, DEVICE, slow))
    (_, spec), = grid
    assert [d.input_scale for d in spec.cluster.devices] \
        == [0.01, 0.01, 0.06]
    # The scheduler axis still applies fleet-wide.
    assert {d.system for d in spec.cluster.devices} == {"IntraO3"}
    with pytest.raises(ValueError):
        policy_grid_specs(scenario=SCENARIO, devices=(DEVICE,),
                          device_config=DEVICE)     # mutually exclusive
    with pytest.raises(ValueError):
        policy_grid_specs(scenario=SCENARIO, devices=())


def test_best_by_goodput_sentinels():
    assert best_by_goodput([]) is None
    point = PolicyGridPoint("IntraO3", "none", "round_robin",
                            "round_robin", offered_rps=1.0,
                            goodput_rps=1.0, admitted=1, rejected=0,
                            completed=1, slo_violations=1, p50_s=None,
                            p99_s=None, energy_j=0.0)
    assert best_by_goodput([point], slo_s=0.1) is None
    assert best_by_goodput([point]) is point
