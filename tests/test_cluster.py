"""Unit tests for the cluster scale-out layer.

Covers the serializable fleet description (``ClusterConfig`` /
``FaultSpec``), the placement policies, the sharding dispatcher with
health transitions and failure rerouting (on stub backends, so routing
logic is tested in isolation), and a small end-to-end fleet run on real
accelerator devices.
"""

import json

import pytest

from repro.cluster import (
    ClusterDispatcher,
    ClusterReport,
    DeviceHealth,
    DeviceShard,
    run_cluster,
    stable_tenant_hash,
)
from repro.policy import PolicySpec, build_policy
from repro.platform import ClusterConfig, FaultSpec, PlatformConfig
from repro.serve import Request, RequestStatus, ServingFrontend, SLOTracker
from repro.serve.session import ServingScenario, TenantSpec
from repro.sim import Environment

from helpers import StubBackend

TENANTS = ("a", "b")


# --------------------------------------------------------------------------- #
# Config layer                                                                 #
# --------------------------------------------------------------------------- #
def test_cluster_config_roundtrip_and_hash():
    config = ClusterConfig.homogeneous(
        3, PlatformConfig(system="InterDy", input_scale=0.1),
        placement=PolicySpec("tenant_affinity", {"salt": 7}),
        degraded_capacity_factor=0.25,
        faults=(FaultSpec(0.5, 1, "failed"), FaultSpec(1.0, 1, "healthy")))
    rebuilt = ClusterConfig.from_dict(
        json.loads(json.dumps(config.to_dict())))
    assert rebuilt == config
    assert rebuilt.config_hash() == config.config_hash()
    # Any knob change re-keys the config.
    assert config.with_overrides(placement="round_robin").config_hash() \
        != config.config_hash()
    assert config.label == "cluster-3xInterDy"


def test_cluster_config_validation():
    device = PlatformConfig()
    with pytest.raises(ValueError):
        ClusterConfig(devices=())
    with pytest.raises(ValueError):
        ClusterConfig.homogeneous(2, device, placement="nope")
    with pytest.raises(ValueError):
        ClusterConfig.homogeneous(2, device, degraded_capacity_factor=0.0)
    with pytest.raises(ValueError):
        ClusterConfig.homogeneous(2, device,
                                  faults=(FaultSpec(0.1, 5, "failed"),))
    with pytest.raises(ValueError):
        FaultSpec(-1.0, 0, "failed")
    with pytest.raises(ValueError):
        FaultSpec(0.0, 0, "sideways")


def test_cluster_config_scaled_to():
    config = ClusterConfig.homogeneous(
        2, PlatformConfig(), faults=(FaultSpec(0.5, 1, "failed"),))
    grown = config.scaled_to(4)
    assert grown.device_count == 4
    assert grown.faults == config.faults
    shrunk = config.scaled_to(1)
    assert shrunk.device_count == 1
    # The fault named device 1, which no longer exists: dropped.
    assert shrunk.faults == ()


def test_mixed_fleet_label():
    config = ClusterConfig(devices=(PlatformConfig(system="IntraO3"),
                                    PlatformConfig(system="SIMD")))
    assert config.label == "cluster-2xmixed"


# --------------------------------------------------------------------------- #
# Placement policies                                                           #
# --------------------------------------------------------------------------- #
class FakeShard:
    def __init__(self, index, queued=0, in_flight=0, capacity=6,
                 energy_j=0.0):
        self.index = index
        self.queued = queued
        self.in_flight = in_flight
        self.capacity = capacity
        self.energy_j = energy_j


def req(i=0, tenant="a"):
    return Request(request_id=i, tenant=tenant, workload="ATAX",
                   arrival_s=0.0)


def test_round_robin_cycles_and_skips_missing_devices():
    policy = build_policy("placement", "round_robin", device_count=3)
    shards = [FakeShard(0), FakeShard(1), FakeShard(2)]
    picks = [policy.select(req(i), shards).index for i in range(4)]
    assert picks == [0, 1, 2, 0]
    # Device 2 leaves the routable set: the cursor skips over it.
    picks = [policy.select(req(i), shards[:2]).index for i in range(3)]
    assert picks == [1, 0, 1]


def test_least_outstanding_normalizes_by_capacity():
    policy = build_policy("placement", "least_outstanding", device_count=2)
    # Same absolute backlog, but shard 1 is derated: its relative load is
    # higher, so shard 0 wins.
    shards = [FakeShard(0, queued=3, capacity=6),
              FakeShard(1, queued=3, capacity=3)]
    assert policy.select(req(), shards).index == 0
    # Ties break to the lowest index.
    shards = [FakeShard(0, queued=2), FakeShard(1, queued=2)]
    assert policy.select(req(), shards).index == 0


def test_tenant_affinity_is_stable_and_falls_forward():
    policy = build_policy("placement", PolicySpec("tenant_affinity"),
                         device_count=4, salt=1)
    shards = [FakeShard(i) for i in range(4)]
    home = policy.select(req(tenant="a"), shards).index
    # Same tenant always lands on the same home device.
    for i in range(5):
        assert policy.select(req(i, tenant="a"), shards).index == home
    # Hash is process-independent (seeded builtin hash() would not be).
    assert policy.home_index("a") == stable_tenant_hash("a", 1) % 4
    # When the home device is out, the policy falls forward
    # deterministically to the next routable index.
    without_home = [s for s in shards if s.index != home]
    fallback = policy.select(req(tenant="a"), without_home).index
    assert fallback == (home + 1) % 4


def test_power_aware_picks_lowest_energy():
    policy = build_policy("placement", "power_aware", device_count=3)
    shards = [FakeShard(0, energy_j=5.0), FakeShard(1, energy_j=1.0),
              FakeShard(2, energy_j=3.0)]
    assert policy.select(req(), shards).index == 1


def test_build_placement_unknown_name():
    with pytest.raises(ValueError):
        build_policy("placement", "nope", device_count=2)


# --------------------------------------------------------------------------- #
# Dispatcher + health (stub backends)                                          #
# --------------------------------------------------------------------------- #
def make_stub_cluster(env, device_count=2, capacity=2, service_s=0.1,
                      placement="round_robin", admission="none",
                      **admission_kwargs):
    cluster = ClusterConfig.homogeneous(device_count, PlatformConfig(),
                                        placement=placement)
    fleet = SLOTracker(TENANTS)
    shards = []
    for index in range(device_count):
        backend = StubBackend(env, capacity=capacity, service_s=service_s)
        tracker = SLOTracker(TENANTS, seed=index + 1)
        frontend = ServingFrontend(
            env, backend,
            build_policy("admission", PolicySpec(admission,
                                                 admission_kwargs)),
            tracker, TENANTS)
        shards.append(DeviceShard(index, PlatformConfig(), backend,
                                  frontend, tracker))
    dispatcher = ClusterDispatcher(env, shards, cluster, fleet)
    return dispatcher, shards, fleet


def test_dispatcher_routes_round_robin_and_conserves_counters():
    env = Environment()
    dispatcher, shards, fleet = make_stub_cluster(env, device_count=2)

    def arrivals():
        for i in range(6):
            dispatcher.submit(req(i, tenant=TENANTS[i % 2]))
        dispatcher.close()
        yield env.timeout(0)

    env.process(arrivals())
    env.run()
    assert fleet.offered == 6
    assert fleet.completed == 6
    assert dispatcher.ledger.routed == [3, 3]
    # Device trackers sum to the fleet's completion count.
    assert sum(s.tracker.completed for s in shards) == fleet.completed


def test_degraded_device_capacity_is_derated():
    env = Environment()
    dispatcher, shards, _fleet = make_stub_cluster(env, device_count=2,
                                                   capacity=4)
    dispatcher.set_health(1, DeviceHealth.DEGRADED)
    assert shards[1].capacity == 2       # 4 * default factor 0.5
    assert shards[1].routable
    dispatcher.set_health(1, DeviceHealth.HEALTHY)
    assert shards[1].capacity == 4


def test_failed_device_backlog_is_rerouted():
    env = Environment()
    dispatcher, shards, fleet = make_stub_cluster(
        env, device_count=2, capacity=1, service_s=0.2)

    def driver():
        # Saturate both devices: 8 requests over 2 x capacity 1.
        for i in range(8):
            dispatcher.submit(req(i, tenant=TENANTS[i % 2]))
        yield env.timeout(0.05)
        # Device 0 is busy with one request and has a queue.
        assert shards[0].queued > 0
        queued_before = shards[0].queued
        dispatcher.set_health(0, DeviceHealth.FAILED)
        assert shards[0].queued == 0
        ledger = dispatcher.ledger
        assert ledger.rerouted_out[0] == queued_before
        assert ledger.rerouted_in[1] == queued_before
        assert ledger.reroutes == queued_before
        # New arrivals only reach the survivor.
        routed_before = ledger.routed[1]
        dispatcher.submit(req(100, tenant="a"))
        assert ledger.routed[1] == routed_before + 1
        dispatcher.close()

    env.process(driver())
    env.run()
    # No admitted request was dropped: everything completed somewhere.
    assert fleet.offered == 9
    assert fleet.completed == 9
    assert fleet.rejected == 0


def test_whole_fleet_failed_rejects_at_cluster_edge():
    env = Environment()
    dispatcher, _shards, fleet = make_stub_cluster(env, device_count=2)
    dispatcher.set_health(0, DeviceHealth.FAILED)
    dispatcher.set_health(1, DeviceHealth.FAILED)
    record = dispatcher.submit(req(0))
    assert record.status is RequestStatus.REJECTED
    assert dispatcher.ledger.cluster_rejected == 1
    assert fleet.offered == 1 and fleet.rejected == 1
    dispatcher.close()
    env.run()


def test_repeated_failure_does_not_wedge_a_self_draining_device():
    """A second 'failed' fault must not re-zero a draining device's capacity."""
    env = Environment()
    dispatcher, shards, fleet = make_stub_cluster(
        env, device_count=1, capacity=1, service_s=0.2)

    def driver():
        for i in range(4):
            dispatcher.submit(req(i))
        yield env.timeout(0.05)
        # First failure: no reroute target, the device self-drains.
        dispatcher.set_health(0, DeviceHealth.FAILED)
        assert shards[0].frontend.capacity_limit is None
        yield env.timeout(0.05)
        # Repeated failure (e.g. a flapping health probe) must be a
        # no-op, not re-apply capacity_limit=0 over the drain fallback.
        dispatcher.set_health(0, DeviceHealth.FAILED)
        assert shards[0].frontend.capacity_limit is None
        dispatcher.close()

    env.process(driver())
    env.run()
    assert fleet.completed == 4
    assert [event[2] for event in dispatcher.ledger.health_events] \
        == ["failed", "failed"]


def test_failed_device_drains_own_backlog_when_no_peer_remains():
    env = Environment()
    dispatcher, shards, fleet = make_stub_cluster(
        env, device_count=1, capacity=1, service_s=0.2)

    def driver():
        for i in range(4):
            dispatcher.submit(req(i))
        yield env.timeout(0.05)
        assert shards[0].queued > 0
        # The only device fails: with no reroute target it must drain its
        # own backlog rather than wedge.
        dispatcher.set_health(0, DeviceHealth.FAILED)
        dispatcher.close()

    env.process(driver())
    env.run()
    assert fleet.completed == 4


# --------------------------------------------------------------------------- #
# End to end on real devices                                                   #
# --------------------------------------------------------------------------- #
SCENARIO = ServingScenario(
    process="poisson", offered_rps=120.0, duration_s=0.5, seed=5,
    tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 16}))

DEVICE = PlatformConfig(system="IntraO3", input_scale=0.01)


def test_run_cluster_end_to_end():
    report = run_cluster(SCENARIO, ClusterConfig.homogeneous(2, DEVICE))
    assert report.device_count == 2
    assert report.offered == report.admitted + report.rejected
    assert report.admitted == report.completed
    assert len(report.devices) == 2
    # Every request was routed somewhere real.
    assert sum(report.placement_stats["routed"]) == report.admitted
    assert report.energy_j == pytest.approx(
        sum(device.energy_j for device in report.devices))
    # Fleet latency data exists and the report round-trips.
    assert report.p99_s is not None
    rebuilt = ClusterReport.from_dict(
        json.loads(json.dumps(report.to_dict())))
    assert rebuilt.to_dict() == report.to_dict()


def test_run_cluster_mid_run_failure_keeps_admitted_requests():
    cluster = ClusterConfig.homogeneous(
        2, DEVICE, faults=(FaultSpec(0.15, 0, "failed"),))
    report = run_cluster(
        SCENARIO.with_overrides(offered_rps=480.0), cluster)
    assert report.admitted == report.completed
    assert report.reroutes > 0
    assert report.health_events == [[0.15, 0, "failed"]]
    assert report.placement_stats["final_health"] == ["failed", "healthy"]


def test_cluster_tenant_affinity_pins_tenants():
    cluster = ClusterConfig.homogeneous(2, DEVICE,
                                        placement="tenant_affinity")
    report = run_cluster(SCENARIO, cluster)
    # Each tenant lands wholly on its home device: every device serves
    # at most the tenants hashed to it, so per-device tenant counters are
    # all-or-nothing.
    for device in report.devices:
        for stats in device.per_tenant.values():
            assert stats["offered"] == 0 or stats["rejected"] > 0 \
                or stats["completed"] == stats["admitted"]
    policy = build_policy("placement", "tenant_affinity", device_count=2)
    for tenant in ("a", "b"):
        home = policy.home_index(tenant)
        away = 1 - home
        assert report.devices[away].per_tenant[tenant]["offered"] == 0
