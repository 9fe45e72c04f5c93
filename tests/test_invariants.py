"""Conservation invariants for serving and cluster runs.

Request accounting must be conserved at every level: nothing offered may
vanish (offered == admitted + rejected), every admitted request must
settle by the time a run drains (admitted == completed, in-flight == 0),
per-tenant counters must sum to the run totals, and fleet energy must be
the sum of the per-device totals.  Checked both at end-of-run (via the
reports) and *mid-run* (stepping a front-end manually), including runs
with mid-run device failures where requests migrate between devices.
"""

import pytest

from repro.cluster import run_cluster
from repro.platform import ClusterConfig, FaultSpec, PlatformConfig
from repro.serve import (
    Request,
    ServingFrontend,
    ServingScenario,
    SLOTracker,
    TenantSpec,
    run_serving,
)
from repro.policy import PolicySpec, build_policy
from repro.sim import Environment

from helpers import StubBackend, peek, step

SCENARIO = ServingScenario(
    process="poisson", offered_rps=480.0, duration_s=0.5, seed=9,
    tenants=(TenantSpec("a", 2.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 8}))

DEVICE = PlatformConfig(system="IntraO3", input_scale=0.01)


def assert_report_conserved(report):
    """The end-of-run invariants every serving-style report must satisfy."""
    assert report.offered == report.admitted + report.rejected
    # The session drains before reporting: nothing is in flight.
    assert report.admitted == report.completed
    assert report.slo_violations <= report.completed
    # Per-tenant counters sum to the run totals.
    for counter in ("offered", "admitted", "rejected", "completed",
                    "slo_violations"):
        total = sum(stats[counter] for stats in report.per_tenant.values())
        assert total == getattr(report, counter), counter


def test_serving_report_conservation():
    report = run_serving(SCENARIO, config=DEVICE)
    assert report.rejected > 0      # the load actually sheds; not vacuous
    assert_report_conserved(report)


def test_serving_report_conservation_baseline():
    report = run_serving(SCENARIO,
                         config=PlatformConfig(system="SIMD",
                                               input_scale=0.01))
    assert_report_conserved(report)


def test_cluster_report_conservation():
    report = run_cluster(SCENARIO, ClusterConfig.homogeneous(2, DEVICE))
    assert_report_conserved(report)
    # Fleet energy is exactly the sum of the per-device totals.
    assert report.energy_j == pytest.approx(
        sum(device.energy_j for device in report.devices))
    assert all(device.energy_j > 0 for device in report.devices)
    # Without failures, per-device counters also sum to fleet totals.
    for counter in ("admitted", "rejected", "completed"):
        assert sum(getattr(device, counter)
                   for device in report.devices) \
            == getattr(report, counter), counter


def test_cluster_conservation_survives_device_failure():
    """Failure rerouting must not leak or duplicate a single request."""
    cluster = ClusterConfig.homogeneous(
        3, DEVICE, faults=(FaultSpec(0.15, 1, "failed"),))
    report = run_cluster(SCENARIO.with_overrides(offered_rps=1500.0),
                         cluster)
    assert report.reroutes > 0
    assert_report_conserved(report)
    # Completions migrated across devices, yet still sum to the fleet
    # total (a request is completed on exactly one device).
    assert sum(device.completed for device in report.devices) \
        == report.completed
    assert report.energy_j == pytest.approx(
        sum(device.energy_j for device in report.devices))


def test_learned_feedback_accounting_is_conserved():
    """Feedback events == completed requests: one event per completion,
    no event for rejects, no double-count on reroutes."""
    scenario = SCENARIO.with_overrides(
        admission=PolicySpec("adaptive_admission"),
        dispatch_spec=PolicySpec("epsilon_greedy_dispatch"))
    cluster = ClusterConfig.homogeneous(
        3, DEVICE, placement=PolicySpec("linucb_placement"),
        faults=(FaultSpec(0.15, 1, "failed"),))
    report = run_cluster(scenario.with_overrides(offered_rps=1500.0),
                         cluster)
    assert_report_conserved(report)
    assert report.reroutes > 0      # the failure path actually fired
    # The fleet-level placement bandit is wired to every shard
    # front-end, so it hears exactly one feedback event per completion
    # fleet-wide, pops every routed request, and saw each queued-request
    # migration exactly once (a rerouted request still learns once).
    placement = report.learned["placement"]
    assert placement["feedback_events"] == report.completed
    assert placement["reroute_events"] == report.reroutes
    # Placement selects a shard *before* that shard's admission rules,
    # so routed-then-rejected requests leave pending entries no feedback
    # ever pops; at drain the leftovers are exactly the rejects.
    assert placement["pending"] == report.rejected
    # Per-shard learned admission/dispatch snapshots live in the device
    # reports; each shard hears its own completions, which sum to the
    # fleet total.
    for domain in ("admission", "dispatch"):
        per_shard = [device.learned[domain]["feedback_events"]
                     for device in report.devices]
        assert sum(per_shard) == report.completed, domain


def test_mid_run_conservation_at_every_event():
    """offered == rejected + completed + queued + in-flight, at all times."""
    env = Environment()
    tenants = ("a", "b")
    backend = StubBackend(env, capacity=2, service_s=0.05)
    tracker = SLOTracker(tenants)
    frontend = ServingFrontend(
        env, backend,
        build_policy("admission",
                     PolicySpec("queue_depth", {"max_tenant_depth": 3})),
        tracker, tenants)

    def arrivals():
        for i in range(20):
            frontend.submit(Request(request_id=i, tenant=tenants[i % 2],
                                    workload="ATAX", arrival_s=env.now))
            yield env.timeout(0.01)
        frontend.close()

    env.process(arrivals())
    while peek(env) != float("inf"):
        step(env)
        agg = tracker.aggregate
        assert agg.offered == agg.admitted + agg.rejected
        assert agg.offered == (agg.rejected + agg.completed
                               + frontend.total_queued
                               + backend.in_flight)
    assert frontend.drained
    assert tracker.aggregate.offered == 20
