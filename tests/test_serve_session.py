"""End-to-end serving sessions, reports, and orchestrator integration."""

import pytest

from repro.eval import (
    ExperimentOrchestrator,
    ServingExperimentSpec,
    find_knee,
    format_saturation_sweep,
    saturation_sweep,
)
from repro.platform import PlatformConfig
from repro.policy import PolicySpec
from repro.serve import (
    ServingReport,
    ServingScenario,
    ServingSession,
    TenantSpec,
    run_serving,
)

SCALE = 0.01
TENANTS = (TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25))


def scenario(**overrides):
    kwargs = {"process": "poisson", "offered_rps": 60.0, "duration_s": 0.8,
              "seed": 3, "tenants": TENANTS,
              "admission": PolicySpec("queue_depth", {"max_tenant_depth": 24})}
    kwargs.update(overrides)
    return ServingScenario(**kwargs)


def config(system="InterDy", **overrides):
    kwargs = {"system": system, "input_scale": SCALE}
    kwargs.update(overrides)
    return PlatformConfig(**kwargs)


# --------------------------------------------------------------------------- #
# Scenario                                                                     #
# --------------------------------------------------------------------------- #
def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(process="lunar")
    with pytest.raises(ValueError):
        scenario(offered_rps=0.0)
    with pytest.raises(ValueError):
        scenario(duration_s=0.0)
    with pytest.raises(ValueError):
        scenario(tenants=())
    with pytest.raises(ValueError):
        scenario(process="trace")    # trace scenarios need events


# NaN and infinity used to hang a run (inf) or report NaN goodput or an
# empty report (nan); they fail at construction, naming the field.
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_scenario_rejects_a_non_finite_duration(value):
    with pytest.raises(ValueError, match="duration_s must be a finite"):
        scenario(duration_s=value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_scenario_rejects_a_non_finite_offered_rate(value):
    with pytest.raises(ValueError, match="offered_rps must be a finite"):
        scenario(offered_rps=value)


def test_scenario_roundtrip_and_label():
    base = scenario(process="mmpp", offered_rps=42.0)
    again = scenario(process="mmpp", offered_rps=42.0)
    assert again == base and again.to_dict() == base.to_dict()
    assert base.to_dict()["tenants"] == [[t.name, t.weight, t.slo_s]
                                         for t in TENANTS]
    assert base.label == "serve-mmpp-42rps"
    trace = scenario(process="trace",
                     trace_events=((0.1, "a", "ATAX"), (0.2, "b", "MVT")))
    assert trace.to_dict()["trace_events"] == [[0.1, "a", "ATAX"],
                                               [0.2, "b", "MVT"]]


# --------------------------------------------------------------------------- #
# Sessions                                                                     #
# --------------------------------------------------------------------------- #
def check_report_invariants(report, scen):
    assert report.offered == report.admitted + report.rejected
    assert report.completed == report.admitted   # nothing left in flight
    agg = report.latency
    if report.completed:
        assert agg["p50_s"] <= agg["p95_s"] <= agg["p99_s"] \
            <= agg["p99.9_s"] <= agg["max_s"]
    # Per-tenant accounts partition the aggregate counts.
    for key in ("offered", "admitted", "rejected", "completed",
                "slo_violations"):
        total = sum(stats[key] for stats in report.per_tenant.values())
        assert total == getattr(report, key)
    assert report.goodput_rps == pytest.approx(
        (report.completed - report.slo_violations) / scen.duration_s)


def test_accelerator_session_end_to_end():
    scen = scenario()
    report = ServingSession(scen, config("InterDy")).run()
    assert report.system == "InterDy"
    assert report.workload == scen.label
    assert report.offered > 20
    assert report.rejected == 0
    check_report_invariants(report, scen)
    assert report.energy_j > 0
    assert report.scheduler_stats["screens_executed"] > 0
    # Two tenants were actually exercised.
    assert set(report.per_tenant) == {"a", "b"}
    assert all(stats["completed"] > 0
               for stats in report.per_tenant.values())


def test_baseline_session_end_to_end():
    scen = scenario(offered_rps=30.0)
    report = ServingSession(scen, config("SIMD")).run()
    assert report.system == "SIMD"
    check_report_invariants(report, scen)
    assert report.completed > 0


def test_sessions_are_deterministic():
    scen = scenario()
    first = ServingSession(scen, config("IntraO3")).run()
    second = ServingSession(scen, config("IntraO3")).run()
    assert first.to_dict() == second.to_dict()
    # A different arrival seed produces a different run.
    third = ServingSession(scen.with_overrides(seed=4),
                           config("IntraO3")).run()
    assert third.to_dict() != first.to_dict()


def test_trace_scenario_session():
    events = tuple((0.02 * i, ("a", "b")[i % 2], "ATAX")
                   for i in range(10))
    scen = scenario(process="trace", trace_events=events, duration_s=0.5)
    report = ServingSession(scen, config("InterDy")).run()
    assert report.offered == 10
    assert report.completed == 10


def test_admission_caps_overload_latency():
    # Far beyond the baseline's capacity: with a depth bound the queue
    # (and hence the tail) stays finite and requests are rejected instead.
    scen = scenario(offered_rps=240.0, admission=PolicySpec(
        "queue_depth", {"max_tenant_depth": 4}))
    report = ServingSession(scen, config("SIMD")).run()
    assert report.rejected > 0
    check_report_invariants(report, scen)


def test_run_serving_wrapper():
    scen = scenario(offered_rps=20.0, duration_s=0.4)
    assert run_serving(scen).system == PlatformConfig().system
    assert run_serving(scen, config=config("SIMD")).system == "SIMD"


def test_completed_chains_release_their_screen_graph():
    """A complete kernel chain keeps only its two timestamps: the screen
    graph is dropped at the last screen, not kept for the whole run."""
    session = ServingSession(scenario(), config("IntraO3"))
    report = session.run()
    chain = session.frontend.backend.accelerator.scheduler.chain
    chains = list(chain.all_chains())
    assert len(chains) == report.completed > 0
    for kernel_chain in chains:
        assert kernel_chain.complete
        assert kernel_chain.nodes == []
        assert kernel_chain.current_node() is None
        assert kernel_chain.completed_at >= kernel_chain.offloaded_at
    assert chain.kernel_latencies() == [
        c.completed_at - c.offloaded_at for c in chains]
    assert chain.completion_times() == sorted(c.completed_at for c in chains)


# --------------------------------------------------------------------------- #
# Report serialization                                                         #
# --------------------------------------------------------------------------- #
def test_serving_report_roundtrip():
    report = ServingSession(scenario(), config("InterDy")).run()
    clone = ServingReport.from_dict(report.to_dict())
    assert clone.to_dict() == report.to_dict()
    assert clone.p99_s == report.p99_s
    assert (clone.admitted, clone.offered) == (report.admitted, report.offered)


# --------------------------------------------------------------------------- #
# Orchestrator integration                                                     #
# --------------------------------------------------------------------------- #
def test_serving_spec_keys():
    spec = ServingExperimentSpec(scenario=scenario(), config=config())
    key = spec.key
    assert key.system == "InterDy"
    assert key.workload == "serve-poisson-60rps"
    assert key == ServingExperimentSpec(scenario=scenario(),
                                        config=config()).key
    assert key != ServingExperimentSpec(scenario=scenario(seed=9),
                                        config=config()).key
    assert key != ServingExperimentSpec(scenario=scenario(),
                                        config=config("IntraO3")).key


def test_serving_results_roundtrip_through_disk_cache(tmp_path):
    spec = ServingExperimentSpec(scenario=scenario(duration_s=0.5),
                                 config=config())
    first = ExperimentOrchestrator(cache_dir=tmp_path)
    report = first.run_one(spec)
    assert first.simulations_run == 1
    # A fresh orchestrator over the same directory serves from disk.
    second = ExperimentOrchestrator(cache_dir=tmp_path)
    cached = second.run_one(spec)
    assert second.simulations_run == 0
    assert isinstance(cached, ServingReport)
    assert cached.to_dict() == report.to_dict()


def test_serving_and_batch_entries_share_a_cache(tmp_path):
    from repro.eval import ExperimentSpec, WorkloadSpec
    orch = ExperimentOrchestrator(cache_dir=tmp_path)
    serving = ServingExperimentSpec(scenario=scenario(duration_s=0.4),
                                    config=config())
    batch = ExperimentSpec(
        workload=WorkloadSpec("homogeneous", "ATAX"),
        config=PlatformConfig(system="InterDy", instances=2,
                              input_scale=0.02))
    reports = orch.run([serving, batch])
    assert isinstance(reports[serving.key], ServingReport)
    from repro.core.accelerator import ExecutionReport
    assert isinstance(reports[batch.key], ExecutionReport)
    # Both survive a cold reload.
    reload = ExperimentOrchestrator(cache_dir=tmp_path)
    again = reload.run([serving, batch])
    assert reload.simulations_run == 0
    assert again[serving.key].to_dict() == reports[serving.key].to_dict()


def test_saturation_sweep_parallel_equals_serial(tmp_path):
    scen = scenario(duration_s=0.5)
    rates = (30.0, 90.0)
    serial = saturation_sweep(
        rates, ("SIMD", "InterDy"), scenario=scen,
        config=PlatformConfig(input_scale=SCALE),
        orchestrator=ExperimentOrchestrator(workers=1))
    parallel = saturation_sweep(
        rates, ("SIMD", "InterDy"), scenario=scen,
        config=PlatformConfig(input_scale=SCALE),
        orchestrator=ExperimentOrchestrator(workers=2))
    assert serial == parallel
    assert [p.offered_rps for p in serial["InterDy"]] == list(rates)
    print(format_saturation_sweep(serial, slo_s=0.25))


def test_sweep_shows_accelerator_sustaining_more_load():
    scen = scenario(duration_s=0.8)
    rates = (30.0, 120.0)
    curves = saturation_sweep(
        rates, ("SIMD", "InterDy"), scenario=scen,
        config=PlatformConfig(input_scale=SCALE),
        orchestrator=ExperimentOrchestrator())
    slo = 0.25
    accel_knee = find_knee(curves["InterDy"], slo)
    assert accel_knee == 120.0
    simd_knee = find_knee(curves["SIMD"], slo)
    assert simd_knee is None or simd_knee < accel_knee
    accel_at = next(p for p in curves["InterDy"]
                    if p.offered_rps == accel_knee)
    simd_at = next(p for p in curves["SIMD"]
                   if p.offered_rps == accel_knee)
    assert accel_at.goodput_rps > simd_at.goodput_rps
