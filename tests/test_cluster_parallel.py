"""Parallel cluster runner: byte-identical to serial, at any worker count.

The contract (PERFORMANCE.md, "Parallel execution contract"): the
epoch-parallel runner is an *execution strategy*, not a semantic knob —
for snapshot-independent placement the assembled
:class:`~repro.cluster.report.ClusterReport` is byte-identical to the
serial :class:`~repro.cluster.session.ClusterSession`'s, whatever the
worker count (including the inline single-process path).  Fault
reroutes stay serial-exact because every fault time is an epoch boundary,
evicted backlog is re-adopted at exactly the eviction instant, and the
faults of one instant are replayed one by one in fault order.
"""

import json
import random

import pytest

from repro.cluster import (
    ClusterSession,
    ParallelClusterSession,
    ParallelConfig,
)
from repro.cluster.parallel import (
    build_epoch_schedule,
    pack_shard_result,
    unpack_shard_result,
)
from repro.eval.cluster import ClusterExperimentSpec
from repro.platform import ClusterConfig, FaultSpec, PlatformConfig
from repro.policy import PolicySpec
from repro.serve import ServingScenario, TenantSpec

SCENARIO = ServingScenario(
    process="poisson", offered_rps=80.0, duration_s=0.4, seed=11,
    tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 16}))

CONFIG = PlatformConfig(input_scale=0.01)


def canonical_bytes(report) -> bytes:
    return json.dumps(report.to_dict(), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def run_parallel(cluster, workers, scenario=SCENARIO):
    return ParallelClusterSession(
        scenario, cluster, ParallelConfig(workers=workers)).run()


# --------------------------------------------------------------------------- #
# Serial byte-identity (the headline contract)                                  #
# --------------------------------------------------------------------------- #
def test_fault_free_fleet_matches_serial_byte_for_byte():
    cluster = ClusterConfig.homogeneous(2, CONFIG)
    serial = canonical_bytes(ClusterSession(SCENARIO, cluster).run())
    for workers in (1, 2):
        assert canonical_bytes(run_parallel(cluster, workers)) == serial


def test_mid_run_failure_matches_serial_byte_for_byte():
    # A mid-run hard failure exercises the full reroute machinery:
    # queued traffic on the dead shard is evicted at the forced fault
    # boundary and re-placed on survivors at exactly the fault instant.
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    serial = canonical_bytes(ClusterSession(SCENARIO, cluster).run())
    for workers in (1, 2, 3):
        assert canonical_bytes(run_parallel(cluster, workers)) == serial


def test_failure_and_recovery_matches_serial_byte_for_byte():
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, faults=(FaultSpec(0.15, 1, "failed"),
                           FaultSpec(0.3, 1, "healthy")))
    serial = canonical_bytes(ClusterSession(SCENARIO, cluster).run())
    for workers in (1, 3):
        assert canonical_bytes(run_parallel(cluster, workers)) == serial


def test_late_fault_during_backlog_drain_matches_serial():
    # Heavy overload leaves deep backlogs past the arrival horizon; a
    # fault near the horizon strikes while survivors are still draining.
    # The schedule must keep issuing fault boundaries after arrivals
    # are exhausted for the eviction to reroute at the serial instant.
    scenario = ServingScenario(
        process="poisson", offered_rps=400.0, duration_s=0.3, seed=5,
        tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
        admission=PolicySpec("queue_depth", {"max_tenant_depth": 64}))
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, faults=(FaultSpec(0.25, 0, "failed"),
                           FaultSpec(0.29, 2, "degraded")))
    serial = canonical_bytes(ClusterSession(scenario, cluster).run())
    for workers in (1, 3):
        assert canonical_bytes(run_parallel(
            cluster, workers, scenario=scenario)) == serial


def test_tenant_affinity_matches_serial_byte_for_byte():
    # The other snapshot-independent policy: epochs widen to the
    # fault/horizon boundaries only, and the report must still be
    # serial-exact.
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, placement="tenant_affinity",
        faults=(FaultSpec(0.15, 1, "failed"),))
    serial = canonical_bytes(ClusterSession(SCENARIO, cluster).run())
    for workers in (1, 3):
        assert canonical_bytes(run_parallel(cluster, workers)) == serial


#: Learned front-end policies: each shard's admission model and dispatch
#: bandit learn from that shard's completions alone, in both drivers.
LEARNED_SCENARIO = ServingScenario(
    process="poisson", offered_rps=300.0, duration_s=0.4, seed=11,
    tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 32}))


@pytest.mark.parametrize("faults", [
    (),
    (FaultSpec(0.15, 1, "failed"),),
    (FaultSpec(0.1, 1, "failed"), FaultSpec(0.25, 1, "healthy")),
], ids=["no-fault", "failure", "fail-recover"])
@pytest.mark.parametrize("admission, dispatch", [
    ("adaptive_admission", "round_robin"),
    ("queue_depth", "epsilon_greedy_dispatch"),
    ("adaptive_admission", "epsilon_greedy_dispatch"),
], ids=["admission", "dispatch", "both"])
def test_learned_front_end_policies_match_serial(admission, dispatch,
                                                 faults):
    scenario = LEARNED_SCENARIO.with_overrides(dispatch_spec=dispatch)
    if admission != "queue_depth":
        scenario = scenario.with_overrides(admission=admission)
    cluster = ClusterConfig.homogeneous(3, CONFIG, faults=faults)
    serial = ClusterSession(scenario, cluster).run()
    assert any(device.learned for device in serial.devices)
    static = ClusterSession(LEARNED_SCENARIO, cluster).run()
    assert canonical_bytes(serial) != canonical_bytes(static)
    for workers in (1, 2):
        assert canonical_bytes(run_parallel(
            cluster, workers, scenario=scenario)) \
            == canonical_bytes(serial)


#: Faults at one instant: each eviction must land on the devices routable
#: right after its own fault, and a device failing later at the same
#: instant must pass on the backlog it just adopted.
SAME_INSTANT_SCENARIO = ServingScenario(
    process="poisson", offered_rps=300.0, duration_s=0.4, seed=11,
    tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 32}))


def test_same_instant_failures_chain_reroutes_like_serial():
    # Device 1's backlog partly lands on device 2, which fails at the
    # same instant and moves it on to device 0.
    cluster = ClusterConfig.homogeneous(
        3, PlatformConfig(input_scale=0.05),
        faults=(FaultSpec(0.1, 1, "failed"), FaultSpec(0.1, 2, "failed")))
    serial = ClusterSession(SAME_INSTANT_SCENARIO, cluster).run()
    assert serial.reroutes == 7
    assert serial.placement_stats["rerouted_in"] == [6, 0, 1]
    for workers in (1, 2):
        parallel = run_parallel(cluster, workers,
                                scenario=SAME_INSTANT_SCENARIO)
        assert canonical_bytes(parallel) == canonical_bytes(serial)


def test_same_instant_whole_fleet_failure_self_drains_like_serial():
    # Device 0's backlog moves to device 1, which then fails with no
    # peer left and drains everything itself.
    cluster = ClusterConfig.homogeneous(
        2, PlatformConfig(input_scale=0.05),
        faults=(FaultSpec(0.1, 0, "failed"), FaultSpec(0.1, 1, "failed")))
    serial = ClusterSession(SAME_INSTANT_SCENARIO, cluster).run()
    assert serial.reroutes == 9
    for workers in (1, 2):
        parallel = run_parallel(cluster, workers,
                                scenario=SAME_INSTANT_SCENARIO)
        assert canonical_bytes(parallel) == canonical_bytes(serial)


def test_generated_same_instant_fault_timelines_match_serial():
    rng = random.Random(15)
    for _ in range(8):
        devices = rng.randint(2, 4)
        tenants = tuple(TenantSpec(name, 1.0, 0.25)
                        for name in "abc"[:rng.randint(1, 3)])
        timeline = {}
        for _ in range(rng.randint(2, 5)):
            slot = (rng.choice((0.1, 0.2, 0.3)), rng.randrange(devices))
            timeline[slot] = rng.choice(("failed", "failed", "healthy",
                                         "degraded"))
        cluster = ClusterConfig.homogeneous(
            devices, PlatformConfig(input_scale=0.05),
            faults=tuple(FaultSpec(time_s, device, state)
                         for (time_s, device), state in timeline.items()))
        scenario = SAME_INSTANT_SCENARIO.with_overrides(tenants=tenants)
        serial = ClusterSession(scenario, cluster).run()
        parallel = run_parallel(cluster, 1, scenario=scenario)
        assert canonical_bytes(parallel) == canonical_bytes(serial), \
            (devices, len(tenants), sorted(timeline.items()))


def test_failure_at_time_zero_matches_serial():
    # A fault at t=0 is an epoch boundary too, so no arrival is routed
    # to the device on a pre-failure snapshot.
    cluster = ClusterConfig.homogeneous(
        3, PlatformConfig(input_scale=0.05),
        faults=(FaultSpec(0.0, 1, "failed"),))
    serial = ClusterSession(SAME_INSTANT_SCENARIO, cluster).run()
    assert serial.placement_stats["routed"][1] == 0
    for workers in (1, 3):
        parallel = run_parallel(cluster, workers,
                                scenario=SAME_INSTANT_SCENARIO)
        assert canonical_bytes(parallel) == canonical_bytes(serial)


# --------------------------------------------------------------------------- #
# Worker-count / schedule independence                                          #
# --------------------------------------------------------------------------- #
def test_worker_counts_and_schedules_agree_across_a_device_failure():
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    reference = canonical_bytes(run_parallel(cluster, 1))
    for workers in (2, 3):
        assert canonical_bytes(run_parallel(cluster, workers)) == reference


def test_snapshot_dependent_policies_are_worker_count_invariant():
    # JSQ/least-outstanding/power-aware route on epoch snapshots, so
    # they are not serial-identical — but they must still be invariant
    # to worker count.
    for placement in ("join_shortest_queue", "least_outstanding",
                      "power_aware"):
        cluster = ClusterConfig.homogeneous(
            3, CONFIG, placement=placement,
            faults=(FaultSpec(0.15, 1, "failed"),))
        reference = canonical_bytes(run_parallel(cluster, 1))
        for workers in (2, 3):
            assert canonical_bytes(
                run_parallel(cluster, workers)) == reference, placement


def test_parallel_run_is_deterministic():
    cluster = ClusterConfig.homogeneous(
        2, CONFIG, faults=(FaultSpec(0.2, 0, "degraded"),))
    assert canonical_bytes(run_parallel(cluster, 2)) == \
        canonical_bytes(run_parallel(cluster, 2))


# --------------------------------------------------------------------------- #
# Epoch schedule                                                                #
# --------------------------------------------------------------------------- #
def test_adaptive_schedule_collapses_to_faults_and_horizon():
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    schedule = build_epoch_schedule(SCENARIO, cluster, ParallelConfig())
    assert schedule == [(0.15, True), (SCENARIO.duration_s, False)]


def test_fixed_schedule_keeps_the_grid():
    # JSQ routes on load snapshots, so it keeps the fixed epoch_s grid.
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, placement="join_shortest_queue")
    schedule = build_epoch_schedule(
        SCENARIO, cluster, ParallelConfig(epoch_s=0.2))
    assert [end for end, _ in schedule] == [0.2, 0.4]
    assert not any(is_fault for _, is_fault in schedule)


def test_snapshot_dependent_placement_never_widens():
    # Every snapshot-dependent policy keeps the grid next to the fault
    # boundary; round-robin on the same fleet widens to faults and horizon.
    faults = (FaultSpec(0.15, 1, "failed"),)
    parallel = ParallelConfig(epoch_s=0.2)
    widened = build_epoch_schedule(
        SCENARIO, ClusterConfig.homogeneous(3, CONFIG, faults=faults),
        parallel)
    assert widened == [(0.15, True), (0.4, False)]
    for placement in ("join_shortest_queue", "least_outstanding",
                      "power_aware"):
        cluster = ClusterConfig.homogeneous(
            3, CONFIG, placement=placement, faults=faults)
        schedule = build_epoch_schedule(SCENARIO, cluster, parallel)
        assert schedule == [(0.15, True), (0.2, False), (0.4, False)], \
            placement


def test_execution_stats_record_strategy_not_report():
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    session = ParallelClusterSession(SCENARIO, cluster,
                                     ParallelConfig(workers=1))
    report = session.run()
    stats = session.execution_stats
    assert stats["mode"] == "inline"
    assert stats["epochs"] >= 1
    # Strategy metadata must NOT leak into the report: the report is
    # byte-identical across strategies, so it cannot describe one.
    assert "epoch_s" not in report.placement_stats
    assert "epochs" not in report.placement_stats


# --------------------------------------------------------------------------- #
# Accounting invariants                                                         #
# --------------------------------------------------------------------------- #
#: Slow service + heavy load: the failed device has a deep queue at the
#: fault instant, so the eviction genuinely reroutes backlog.
BACKLOG_SCENARIO = ServingScenario(
    process="poisson", offered_rps=400.0, duration_s=0.4, seed=11,
    tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 32}))
SLOW_CONFIG = PlatformConfig(input_scale=0.05)


@pytest.fixture(scope="module")
def failed_report():
    cluster = ClusterConfig.homogeneous(
        3, SLOW_CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    return ParallelClusterSession(
        BACKLOG_SCENARIO, cluster, ParallelConfig(workers=2)).run()


def test_rerouted_backlog_matches_serial_byte_for_byte(failed_report):
    cluster = ClusterConfig.homogeneous(
        3, SLOW_CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    serial = ClusterSession(BACKLOG_SCENARIO, cluster).run()
    assert serial.placement_stats["reroutes"] >= 1
    assert canonical_bytes(failed_report) == canonical_bytes(serial)


def test_overload_with_admission_rejections_matches_serial():
    # Shard-level admission rejections exercise the routed-vs-assigned
    # distinction: the serial dispatcher only counts admitted arrivals
    # as routed.
    scenario = BACKLOG_SCENARIO.with_overrides(offered_rps=800.0)
    cluster = ClusterConfig.homogeneous(
        3, SLOW_CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    serial = ClusterSession(scenario, cluster).run()
    assert serial.rejected > 0
    for workers in (1, 3):
        parallel = run_parallel(cluster, workers, scenario=scenario)
        assert canonical_bytes(parallel) == canonical_bytes(serial)


def test_traffic_conservation(failed_report):
    report = failed_report
    assert report.offered == report.admitted + report.rejected
    assert report.completed <= report.admitted
    assert report.placement_stats["reroutes"] >= 1


def test_failure_lands_in_health_events(failed_report):
    # Events are [time_s, device, state] rows, same as the serial path.
    assert any(event[1] == 1 and event[2] == "failed"
               for event in failed_report.health_events)


# --------------------------------------------------------------------------- #
# Refusals (serial-only run shapes)                                             #
# --------------------------------------------------------------------------- #
def test_learned_placement_is_refused_exactly():
    cluster = ClusterConfig.homogeneous(2, CONFIG,
                                        placement="linucb_placement")
    with pytest.raises(ValueError, match="learned.*linucb_placement"):
        ParallelClusterSession(SCENARIO, cluster)


def test_elastic_cluster_is_refused():
    cluster = ClusterConfig.homogeneous(
        2, CONFIG, autoscaler_spec="queue_depth_threshold")
    with pytest.raises(ValueError, match="elastic"):
        ParallelClusterSession(SCENARIO, cluster)


def test_schedule_missing_a_fault_boundary_fails_fast(monkeypatch):
    # Without the forced fault boundary, routing keeps sending traffic
    # to the failed device; the runner must refuse to hand back a report
    # that silently diverges from serial.
    import repro.cluster.parallel as parallel

    monkeypatch.setattr(
        parallel, "build_epoch_schedule",
        lambda scenario, cluster, config: [(scenario.duration_s, False)])
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    with pytest.raises(RuntimeError, match=r"device 1 .* t=0\.4"):
        run_parallel(cluster, workers=1)


# --------------------------------------------------------------------------- #
# Wire codec                                                                    #
# --------------------------------------------------------------------------- #
def test_pack_unpack_round_trips_boundary_payloads():
    payload = {
        "snapshot": (3, 1, 4, 2.5, "healthy"),
        "admitted": {0: 5, 1: 2},
        "rejected": {1: 1},
        "completions": [(0.125, 0, 0.03, False), (0.25, 1, 0.6, True)],
        "evicted": [(0, [(7, 0.1, 0), (9, None, 2)])],
        "health_events": [[0, 0.15, 1, "failed"]],
    }
    assert unpack_shard_result(pack_shard_result(payload)) == payload
    settled = dict(payload, settled_s=0.375)
    assert unpack_shard_result(pack_shard_result(settled)) == settled


# --------------------------------------------------------------------------- #
# Experiment-spec plumbing                                                      #
# --------------------------------------------------------------------------- #
def test_spec_key_semantics():
    cluster = ClusterConfig.homogeneous(2, CONFIG)
    plain = ClusterExperimentSpec(SCENARIO, cluster)
    one = ClusterExperimentSpec(SCENARIO, cluster,
                                parallel=ParallelConfig(workers=1))
    many = ClusterExperimentSpec(SCENARIO, cluster,
                                 parallel=ParallelConfig(workers=4))
    coarse = ClusterExperimentSpec(
        SCENARIO, cluster, parallel=ParallelConfig(workers=1, epoch_s=0.5))
    # Worker count is an execution strategy: same key either way.
    assert one.key == many.key
    # Round-robin is snapshot-independent, so the parallel run is
    # byte-identical to serial and even epoch_s is execution strategy:
    # all these specs share one cache entry.
    assert plain.key == one.key == coarse.key


def test_spec_key_folds_epoch_for_snapshot_dependent_placement():
    cluster = ClusterConfig.homogeneous(2, CONFIG,
                                        placement="join_shortest_queue")
    plain = ClusterExperimentSpec(SCENARIO, cluster)
    one = ClusterExperimentSpec(SCENARIO, cluster,
                                parallel=ParallelConfig(workers=1))
    many = ClusterExperimentSpec(SCENARIO, cluster,
                                 parallel=ParallelConfig(workers=4))
    coarse = ClusterExperimentSpec(
        SCENARIO, cluster, parallel=ParallelConfig(workers=1, epoch_s=0.5))
    # JSQ routes on epoch snapshots: epoch_s is semantic, and the
    # parallel run is not serial-identical, so keys stay distinct.
    assert one.key == many.key
    assert coarse.key != one.key
    assert plain.key != one.key


def test_parallel_config_round_trips():
    config = ParallelConfig(workers=3, epoch_s=0.5)
    restored = ParallelConfig.from_dict(config.to_dict())
    assert restored.epoch_s == config.epoch_s
    # to_dict deliberately drops the worker count (execution strategy:
    # results are byte-identical either way).
    assert config.to_dict() == {"epoch_s": 0.5}
