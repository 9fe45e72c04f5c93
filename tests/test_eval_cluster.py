"""Eval-layer tests: knee edge cases and orchestrated cluster sweeps."""

import pytest

from repro.eval import (
    ClusterExperimentSpec,
    ElasticComparison,
    ExperimentOrchestrator,
    FleetOutcome,
    SaturationPoint,
    elastic_sweep,
    find_knee,
    format_elastic,
    format_scaling_sweep,
    saturation_sweep,
    scaling_efficiency,
    scaling_sweep,
)
from repro.cluster import ClusterReport
from repro.platform import ClusterConfig, PlatformConfig
from repro.policy import PolicySpec
from repro.serve import ServingScenario, TenantSpec

SCALE = 0.01

SCENARIO = ServingScenario(
    process="poisson", duration_s=0.4, seed=13,
    tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 16}))

DEVICE = PlatformConfig(system="IntraO3", input_scale=SCALE)


def point(rps, p99):
    return SaturationPoint(
        offered_rps=rps, actual_offered_rps=rps, goodput_rps=rps,
        admitted=10, rejected=0, completed=10, slo_violations=0,
        p50_s=p99, p95_s=p99, p99_s=p99)


# --------------------------------------------------------------------------- #
# find_knee / saturation sweep edge cases                                      #
# --------------------------------------------------------------------------- #
def test_find_knee_empty_sweep_returns_sentinel():
    assert find_knee([], slo_s=0.25) is None


def test_find_knee_all_violating_returns_sentinel():
    points = [point(20.0, 0.9), point(40.0, 1.5)]
    assert find_knee(points, slo_s=0.25) is None


def test_find_knee_simple_monotone_sweep():
    points = [point(20.0, 0.05), point(40.0, 0.1), point(80.0, 0.6)]
    assert find_knee(points, slo_s=0.25) == 40.0


def test_find_knee_ignores_noisy_post_saturation_dip():
    # A noisy seed makes p99 dip back under the SLO at 80 rps after the
    # sweep already violated at 40: the knee must stay at 20, not jump
    # to the post-saturation outlier.
    points = [point(20.0, 0.05), point(40.0, 0.6), point(80.0, 0.2)]
    assert find_knee(points, slo_s=0.25) == 20.0


def test_find_knee_treats_missing_latency_as_violation():
    # No completions at 40 rps (everything rejected): no latency data
    # cannot certify the SLO, so the knee stops before it.
    points = [point(20.0, 0.05), point(40.0, None), point(80.0, 0.05)]
    assert find_knee(points, slo_s=0.25) == 20.0


def test_find_knee_unsorted_input():
    points = [point(80.0, 0.6), point(20.0, 0.05), point(40.0, 0.1)]
    assert find_knee(points, slo_s=0.25) == 40.0


def test_saturation_sweep_empty_rates_returns_empty_curves():
    curves = saturation_sweep((), ("SIMD", "InterDy"))
    assert curves == {"SIMD": [], "InterDy": []}


def test_scaling_sweep_empty_counts_returns_empty():
    assert scaling_sweep((), 100.0) == []
    assert scaling_efficiency([]) == []


# --------------------------------------------------------------------------- #
# Orchestrated cluster sweeps                                                  #
# --------------------------------------------------------------------------- #
def test_cluster_spec_key_is_stable_and_cacheable(tmp_path):
    spec = ClusterExperimentSpec(
        scenario=SCENARIO.with_overrides(offered_rps=60.0),
        cluster=ClusterConfig.homogeneous(2, DEVICE))
    assert spec.key == spec.key
    assert spec.key.system == "cluster-2xIntraO3"
    orch = ExperimentOrchestrator(cache_dir=tmp_path)
    report = orch.run_one(spec)
    assert isinstance(report, ClusterReport)
    assert orch.simulations_run == 1
    # A cold orchestrator re-serves the run from the on-disk cache, and
    # the cached report round-trips to the same bytes.
    reload = ExperimentOrchestrator(cache_dir=tmp_path)
    again = reload.run_one(spec)
    assert reload.simulations_run == 0
    assert again.to_dict() == report.to_dict()


def test_scaling_sweep_parallel_equals_serial():
    counts = (1, 2)
    serial = scaling_sweep(
        counts, 240.0, scenario=SCENARIO, device_config=DEVICE,
        orchestrator=ExperimentOrchestrator(workers=1))
    parallel = scaling_sweep(
        counts, 240.0, scenario=SCENARIO, device_config=DEVICE,
        orchestrator=ExperimentOrchestrator(workers=2))
    assert [vars(p) for p in serial] == [vars(p) for p in parallel]
    assert [p.device_count for p in serial] == list(counts)
    text = format_scaling_sweep(serial, slo_s=0.25)
    assert "devices" in text and "speedup" in text
    print("\n" + text)


def test_scaling_efficiency_zero_base_is_inf_sentinel():
    class P:
        def __init__(self, n, g):
            self.device_count = n
            self.goodput_rps = g
    factors = scaling_efficiency([P(1, 0.0), P(2, 10.0)])
    assert factors[0] == 1.0
    assert factors[1] == float("inf")


def test_format_scaling_sweep_renders_inf_speedup_as_na():
    # A zero-goodput reference point makes every speedup factor the inf
    # sentinel; the table must say "n/a", not print "inf".
    class P:
        def __init__(self, n, g):
            self.device_count = n
            self.offered_rps = 100.0
            self.goodput_rps = g
            self.admitted = 0 if g == 0.0 else 10
            self.rejected = 10
            self.slo_violations = 0
            self.p50_s = None
            self.p95_s = None
            self.p99_s = None
            self.energy_j = 1.0
            self.reroutes = 0
    text = format_scaling_sweep([P(1, 0.0), P(2, 10.0)])
    assert "n/a" in text
    assert "inf" not in text


# --------------------------------------------------------------------------- #
# Elastic fleet comparison                                                     #
# --------------------------------------------------------------------------- #
def outcome(mode, device_seconds, violations=0):
    return FleetOutcome(
        mode=mode, device_seconds=device_seconds, peak_devices=4,
        low_devices=1 if mode == "elastic" else 4,
        scale_events=6 if mode == "elastic" else 0, offered=100,
        admitted=90, completed=90, dropped=0, slo_violations=violations,
        goodput_rps=200.0, p99_s=0.1, energy_j=5.0)


def test_elastic_comparison_math_and_rendering():
    comparison = ElasticComparison(
        scenario="diurnal",
        elastic=outcome("elastic", 6.0),
        static=outcome("static", 12.0, violations=9))
    assert comparison.device_seconds_saved_pct == pytest.approx(50.0)
    # Elastic is fully compliant; static lost 10% of completions.
    assert comparison.compliance_gap == pytest.approx(0.1)
    text = format_elastic([comparison])
    assert "diurnal" in text and "elastic" in text and "static" in text
    assert "saved 50.0% device-seconds" in text


def test_elastic_sweep_rejects_unknown_scenarios():
    with pytest.raises(ValueError, match="unknown elastic scenario"):
        elastic_sweep(scenarios=("diurnal", "weekly"))
