"""Unit tests for the serving arrival processes and trace helpers."""

import hashlib

import pytest

from repro.eval.elastic import churn_scenario as elastic_churn
from repro.eval.learned import churn_scenario as learned_churn
from repro.eval.serving import ServingExperimentSpec
from repro.platform.config import PlatformConfig
from repro.serve import (
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TenantSpec,
    TraceArrivals,
)
from repro.workloads import load_trace, synthetic_trace, write_trace

TENANTS = (TenantSpec("a", 2.0, 0.5), TenantSpec("b", 1.0, 0.25))


def test_tenant_spec_validation():
    with pytest.raises(ValueError):
        TenantSpec("bad", weight=0.0)
    with pytest.raises(ValueError):
        TenantSpec("bad", slo_s=0.0)


def test_poisson_rate_and_determinism():
    process = PoissonArrivals(100.0, TENANTS, seed=5)
    requests = process.generate(10.0)
    # Mean inter-arrival 10 ms over 10 s: expect ~1000 +- a loose band.
    assert 800 < len(requests) < 1200
    assert all(0.0 <= r.arrival_s < 10.0 for r in requests)
    times = [r.arrival_s for r in requests]
    assert times == sorted(times)
    assert [r.request_id for r in requests] == list(range(len(requests)))
    # Same seed, same trace; different seed, different trace.
    again = PoissonArrivals(100.0, TENANTS, seed=5).generate(10.0)
    assert again == requests
    other = PoissonArrivals(100.0, TENANTS, seed=6).generate(10.0)
    assert other != requests


def test_poisson_tenant_weights_and_slo():
    requests = PoissonArrivals(200.0, TENANTS, seed=9).generate(10.0)
    by_tenant = {"a": 0, "b": 0}
    for request in requests:
        by_tenant[request.tenant] += 1
        expected = 0.5 if request.tenant == "a" else 0.25
        assert request.slo_s == expected
        assert request.deadline_s == pytest.approx(
            request.arrival_s + expected)
    # Tenant a has twice the weight: expect roughly a 2:1 split.
    assert by_tenant["a"] > 1.5 * by_tenant["b"]


def test_poisson_workload_pool_is_validated():
    with pytest.raises(KeyError):
        PoissonArrivals(10.0, TENANTS, workloads=("NOSUCH",))
    with pytest.raises(ValueError):
        PoissonArrivals(0.0, TENANTS)
    with pytest.raises(ValueError):
        PoissonArrivals(10.0, ())


def test_mmpp_bursts_raise_the_mean_rate():
    base = 50.0
    process = MMPPArrivals(base, TENANTS, seed=4, burst_factor=6.0,
                           normal_dwell_s=1.0, burst_dwell_s=0.5)
    requests = process.generate(30.0)
    realized = len(requests) / 30.0
    assert realized > base * 1.3          # bursts add traffic...
    assert realized < process.mean_rate_rps() * 1.5   # ...but sanely
    assert requests == MMPPArrivals(
        base, TENANTS, seed=4, burst_factor=6.0, normal_dwell_s=1.0,
        burst_dwell_s=0.5).generate(30.0)


def test_diurnal_ramp_concentrates_load_mid_period():
    process = DiurnalArrivals(200.0, TENANTS, seed=8, period_s=10.0,
                              floor_fraction=0.1)
    requests = process.generate(10.0)
    edge = [r for r in requests if r.arrival_s < 2.0 or r.arrival_s > 8.0]
    middle = [r for r in requests if 3.0 < r.arrival_s < 7.0]
    assert len(middle) > 2 * len(edge)
    assert process.rate_at(5.0) == pytest.approx(200.0)
    assert process.rate_at(0.0) == pytest.approx(20.0)


def test_trace_replay_and_file_roundtrip(tmp_path):
    events = synthetic_trace(5.0, 40.0, tenants=("a", "b"),
                             workloads=("ATAX", "MVT"), seed=2)
    assert events == synthetic_trace(5.0, 40.0, tenants=("a", "b"),
                                     workloads=("ATAX", "MVT"), seed=2)
    path = tmp_path / "trace.jsonl"
    write_trace(path, events)
    assert load_trace(path) == events

    replay = TraceArrivals.from_file(path, TENANTS)
    requests = replay.generate(5.0)
    assert len(requests) == len(events)
    assert [r.arrival_s for r in requests] == [e[0] for e in events]
    # The horizon truncates the replay.
    assert len(replay.generate(2.5)) == len(
        [e for e in events if e[0] < 2.5])


def test_trace_rejects_unknown_tenant():
    with pytest.raises(ValueError):
        TraceArrivals([(0.5, "stranger", "ATAX")], TENANTS)
    with pytest.raises(ValueError):
        TraceArrivals([(-1.0, "a", "ATAX")], TENANTS)


@pytest.mark.parametrize("make, kwargs, count, trace_digest, key_digest", [
    ("elastic", {}, 1090, "de4fe7455b8cce58", "6c51f91549504df4"),
    ("elastic", {"duration_s": 2.0, "busy_rps": 240.0}, 623,
     "fe2814df673cbc07", "16efc5cee701acab"),
    ("learned", {}, 1494, "ef726b6c4b7db8fa", "3c52c98f88d569d6"),
    ("learned", {"duration_s": 2.0, "busy_rps": 240.0}, 648,
     "39413f2dd50b10ce", "a726eb9c5d3dc627"),
])
def test_churn_scenarios_share_one_pinned_trace(make, kwargs, count,
                                                trace_digest, key_digest):
    """Both churn scenarios build their trace with ``churn_trace``; the
    events and the experiment cache keys are pinned to the values the
    scenarios had before they shared it."""
    scenario = {"elastic": elastic_churn,
                "learned": learned_churn}[make](**kwargs)
    events = scenario.trace_events
    assert len(events) == count
    assert hashlib.sha256(repr(events).encode()).hexdigest()[:16] \
        == trace_digest
    key = ServingExperimentSpec(scenario, PlatformConfig()).key
    assert tuple(key) == ("IntraO3", "serve-trace-20rps", key_digest)
