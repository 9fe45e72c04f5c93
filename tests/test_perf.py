"""Tests for the wall-clock perf subsystem (``repro.perf``).

Covers the three satellite requirements: the ``BENCH_PERF.json`` schema
round-trip, the regression/threshold comparison logic, and determinism
guards asserting the optimized engine's output is byte-identical to the
pre-optimization behavior (event ordering, pooled-object hygiene, and
the checked-in golden fixtures).
"""

import json

import pytest

from repro.perf import (
    PerfMetric,
    PerfReport,
    Regression,
    SCHEMA_VERSION,
    Threshold,
    WallTimer,
    check_regression,
    check_thresholds,
    diff_reports,
    measure,
)
from repro.platform import PlatformConfig
from repro.policy import PolicySpec
from repro.serve import ServingScenario, ServingSession, TenantSpec
from repro.sim.engine import Environment

from helpers import check_golden, peek, step


# --------------------------------------------------------------------------- #
# Report schema round-trip                                                     #
# --------------------------------------------------------------------------- #
def sample_report() -> PerfReport:
    report = PerfReport(created="2026-07-30T00:00:00+00:00",
                        config={"mode": "test"})
    report.add(PerfMetric("engine_events_per_sec", 1_200_000.0, "events/s",
                          baseline=600_000.0))
    report.add(PerfMetric("orchestrator_cache_miss_s", 0.5, "s",
                          higher_is_better=False))
    report.add(PerfMetric("serving_requests_per_sec", 250.0, "requests/s"))
    return report


def test_report_roundtrip_through_dict():
    report = sample_report()
    payload = report.to_dict()
    rebuilt = PerfReport.from_dict(json.loads(json.dumps(payload)))
    assert rebuilt.to_dict() == payload


def test_report_roundtrip_through_file(tmp_path):
    report = sample_report()
    path = report.save(tmp_path / "BENCH_PERF.json")
    loaded = PerfReport.load(path)
    assert loaded.to_dict() == report.to_dict()
    assert loaded.get("engine_events_per_sec").baseline == 600_000.0


def test_report_rejects_unknown_schema(tmp_path):
    payload = sample_report().to_dict()
    payload["schema"] = SCHEMA_VERSION + 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="schema"):
        PerfReport.load(path)


def test_metric_ratio_semantics():
    higher = PerfMetric("x", 200.0, "u", baseline=100.0)
    assert higher.ratio == pytest.approx(2.0)
    lower = PerfMetric("y", 0.5, "s", higher_is_better=False, baseline=1.0)
    assert lower.ratio == pytest.approx(2.0)   # halved time = 2x better
    assert PerfMetric("z", 1.0, "u").ratio is None
    assert PerfMetric("w", 1.0, "u", baseline=0.0).ratio is None


# --------------------------------------------------------------------------- #
# Threshold + regression comparison logic                                      #
# --------------------------------------------------------------------------- #
def test_threshold_passes_and_fails():
    report = sample_report()
    assert Threshold("engine_events_per_sec", 2.0).check(report) is None
    message = Threshold("engine_events_per_sec", 2.5).check(report)
    assert message is not None and "below" in message
    assert "missing" in Threshold("nope", 1.0).check(report)
    assert "no baseline" in Threshold(
        "serving_requests_per_sec", 1.0).check(report)


def test_check_thresholds_collects_all_violations():
    report = sample_report()
    violations = check_thresholds(report, [
        Threshold("engine_events_per_sec", 2.0),     # satisfied
        Threshold("engine_events_per_sec", 3.0),     # violated
        Threshold("missing_metric", 1.0),            # violated
    ])
    assert len(violations) == 2


def make_snapshot(**values) -> PerfReport:
    report = PerfReport(created="2026-07-30T00:00:00+00:00")
    for name, value in values.items():
        higher = not name.endswith("_s")
        report.add(PerfMetric(name, value, "u", higher_is_better=higher))
    return report


def test_diff_reports_speedups_and_markers():
    old = make_snapshot(a=100.0, lat_s=2.0, gone=5.0)
    new = make_snapshot(a=150.0, lat_s=1.0, fresh=7.0)
    diff = diff_reports(old, new)
    assert diff["a"]["speedup"] == pytest.approx(1.5)
    assert diff["lat_s"]["speedup"] == pytest.approx(2.0)  # lower is better
    assert diff["gone"]["only_in_old"] is True
    assert diff["fresh"]["only_in_new"] is True


def test_check_regression_flags_past_tolerance():
    old = make_snapshot(fast=100.0, slow=100.0, lat_s=1.0)
    new = make_snapshot(fast=95.0, slow=70.0, lat_s=1.5)
    regressions = check_regression(old, new, tolerance=0.15)
    names = {r.metric for r in regressions}
    assert names == {"slow", "lat_s"}     # "fast" is within tolerance
    for regression in regressions:
        assert isinstance(regression, Regression)
        assert regression.speedup < 0.85
        assert "->" in str(regression)


def test_check_regression_overrides_and_validation():
    old = make_snapshot(noisy=100.0)
    new = make_snapshot(noisy=60.0)
    assert check_regression(old, new, tolerance=0.15,
                            overrides={"noisy": 0.5}) == []
    with pytest.raises(ValueError):
        check_regression(old, new, tolerance=1.5)


# --------------------------------------------------------------------------- #
# Timers                                                                       #
# --------------------------------------------------------------------------- #
def test_wall_timer_measures_elapsed():
    with WallTimer() as timer:
        sum(range(10_000))
    assert timer.elapsed_s > 0.0


def test_measure_collects_runs_and_rates():
    measurement = measure("toy", lambda: 100.0, repeats=3, warmup=1)
    assert measurement.units == 100.0
    assert len(measurement.runs_s) == 3
    assert measurement.rate > 0
    assert measurement.best_s <= measurement.median_s


def test_measure_ab_interleaves_and_collects_both_sides():
    from repro.perf import measure_ab

    order = []
    a, b = measure_ab("side_a", lambda: order.append("a") or 10.0,
                      "side_b", lambda: order.append("b") or 20.0,
                      repeats=3, warmup=1)
    assert order == ["a", "b"] * 4          # warmup + 3 repeats, interleaved
    assert a.units == 10.0 and b.units == 20.0
    assert len(a.runs_s) == len(b.runs_s) == 3
    assert a.best_rate > 0 and b.best_rate > 0


def test_measure_rejects_unsteady_benchmarks():
    counter = iter(range(10))

    def body():
        return next(counter)   # different unit count every run

    with pytest.raises(ValueError, match="not steady"):
        measure("unsteady", body, repeats=2, warmup=0)


# --------------------------------------------------------------------------- #
# Determinism guards for the optimized engine                                  #
# --------------------------------------------------------------------------- #
def mixed_workload(env, log):
    """Processes exercising timeouts, shared events and a re-yield."""

    def ticker(env, name, period, count):
        for _ in range(count):
            yield env.timeout(period)
            log.append((env.now, name))

    def signaler(env, gate):
        yield env.timeout(0.5)
        gate.succeed("sig")

    def waiter(env, gate, name):
        value = yield gate
        log.append((env.now, name, value))

    def reyielder(env):
        first = env.timeout(0.3)
        second = env.timeout(0.7)
        yield second
        log.append((env.now, "second"))
        # Yield an already-processed event: synchronous resume path.
        yield first
        log.append((env.now, "reyield", first.value))

    gate = env.event()
    env.process(ticker(env, "a", 0.25, 8))
    env.process(ticker(env, "b", 0.4, 5))
    env.process(signaler(env, gate))
    env.process(waiter(env, gate, "w1"))
    env.process(waiter(env, gate, "w2"))   # two waiters on one event
    env.process(reyielder(env))


def test_run_and_step_process_events_identically():
    """The inlined run() loop must order events exactly like step()."""
    log_run = []
    env_run = Environment()
    mixed_workload(env_run, log_run)
    env_run.run()

    log_step = []
    env_step = Environment()
    mixed_workload(env_step, log_step)
    while peek(env_step) != float("inf"):
        step(env_step)

    assert log_run == log_step
    assert env_run.now == env_step.now
    assert env_run._eid == env_step._eid


def test_timeout_pool_reuse_is_unobservable():
    """Recycled timeouts must never clobber a held reference's value."""
    env = Environment()
    held = []

    def holder(env):
        timeout = env.timeout(1.0, value="precious")
        yield timeout
        held.append(timeout)
        # Churn through many pooled timeouts while the reference lives.
        for _ in range(50):
            yield env.timeout(0.01)

    def churner(env):
        for _ in range(200):
            yield env.timeout(0.005)

    env.process(holder(env))
    env.process(churner(env))
    env.run()
    assert held[0].value == "precious"
    assert held[0].callbacks is None        # processed, waiters resumed


def test_event_identity_stays_fresh_across_pooling():
    """env.event() must never hand out an object still visible elsewhere."""
    env = Environment()
    seen = []

    def producer(env):
        for _ in range(100):
            gate = env.event()
            seen.append(gate)
            gate.succeed()
            yield env.timeout(0.01)

    env.process(producer(env))
    env.run()
    # Every handed-out event stayed distinct while referenced: all 100
    # objects are alive in `seen`, so no two can be the same object.
    assert len(set(map(id, seen))) == len(seen)
    assert all(event.callbacks is None for event in seen)


def test_optimized_engine_matches_serving_golden():
    """End-to-end guard: the optimized hot paths reproduce, byte for
    byte, the serving golden generated before the optimization work."""
    scenario = ServingScenario(
        process="poisson", offered_rps=60.0, duration_s=0.3, seed=21,
        tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
        admission=PolicySpec("queue_depth", {"max_tenant_depth": 8}))
    config = PlatformConfig(system="IntraO3", input_scale=0.01)
    report = ServingSession(scenario, config).run()
    check_golden("serving_report", report.to_dict(), update=False)
