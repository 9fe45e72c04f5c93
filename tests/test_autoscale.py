"""Elastic-fleet tests: autoscaler policies, the control loop, drain safety.

Policy decisions are tested on fabricated :class:`FleetSignals` (pure
functions of the snapshot), the controller's scale-up/drain/retire
mechanics on stub backends (so lifecycle logic is isolated from device
timing), and the end-to-end contract — conservation, determinism, report
round-trip — on a small real-device diurnal run.
"""

import json

import pytest

from repro.cluster import (
    AutoscaleController,
    ClusterDispatcher,
    ClusterReport,
    DeviceHealth,
    DeviceShard,
    FleetSignals,
    P99TargetAutoscaler,
    ParallelClusterSession,
    QueueDepthThresholdAutoscaler,
    run_cluster,
)
from repro.platform import ClusterConfig, FaultSpec, PlatformConfig
from repro.policy import (
    POLICY_DOMAINS,
    PolicySpec,
    build_policy,
    policy_names,
)
from repro.serve import Request, ServingFrontend, SLOTracker
from repro.serve.session import ServingScenario, TenantSpec
from repro.sim import Environment

from helpers import StubBackend

TENANTS = ("a", "b")


def req(i=0, tenant="a"):
    return Request(request_id=i, tenant=tenant, workload="ATAX",
                   arrival_s=0.0)


def signals(active=2, queued=0, in_flight=0, p99=None, min_devices=1,
            max_devices=4):
    return FleetSignals(
        now=1.0, active_devices=active, min_devices=min_devices,
        max_devices=max_devices, queued_total=queued,
        in_flight_total=in_flight, window_completed=0, window_p99_s=p99,
        rolling_p99_s=p99, window_arrivals=0)


# --------------------------------------------------------------------------- #
# Registry domain                                                              #
# --------------------------------------------------------------------------- #
def test_autoscaler_is_a_registry_domain():
    assert "autoscaler" in POLICY_DOMAINS
    names = policy_names("autoscaler")
    assert "queue_depth_threshold" in names
    assert "p99_target" in names
    policy = build_policy("autoscaler", "queue_depth_threshold")
    assert isinstance(policy, QueueDepthThresholdAutoscaler)
    with pytest.raises(ValueError):
        build_policy("autoscaler", "nope")


# --------------------------------------------------------------------------- #
# Policy decisions on fabricated signals                                       #
# --------------------------------------------------------------------------- #
def test_queue_depth_policy_thresholds():
    policy = QueueDepthThresholdAutoscaler(scale_up_depth=3.0,
                                           scale_down_depth=0.5)
    # Standing queue above the high-water mark: grow.
    assert policy.target(signals(active=2, queued=8, in_flight=2)) == 3
    # Busy but unqueued: outstanding/device is 1.0, inside the dead band —
    # a fleet that is keeping up must not be read as idle.
    assert policy.target(signals(active=2, queued=0, in_flight=2)) == 2
    # Genuinely idle: shrink.
    assert policy.target(signals(active=2, queued=0, in_flight=0)) == 1


def test_queue_depth_policy_validation():
    with pytest.raises(ValueError):
        QueueDepthThresholdAutoscaler(scale_up_depth=1.0,
                                      scale_down_depth=1.0)
    with pytest.raises(ValueError):
        QueueDepthThresholdAutoscaler(step=0)


def test_p99_policy_needs_patience_to_move():
    policy = P99TargetAutoscaler(target_p99_s=0.1, patience=2)
    over = signals(active=2, p99=0.5)
    # One breaching window is noise; the second consecutive one acts.
    assert policy.target(over) == 2
    assert policy.target(over) == 3
    # The streak resets after acting: one more breach is noise again.
    assert policy.target(over) == 2


def test_p99_policy_breach_streak_resets_on_recovery():
    policy = P99TargetAutoscaler(target_p99_s=0.1, patience=2)
    assert policy.target(signals(active=2, p99=0.5)) == 2
    # A healthy window in between breaks the streak.
    assert policy.target(signals(active=2, p99=0.08)) == 2
    assert policy.target(signals(active=2, p99=0.5)) == 2


def test_p99_policy_scales_down_when_fast_and_idle():
    policy = P99TargetAutoscaler(target_p99_s=0.1, low_fraction=0.5,
                                 patience=2)
    under = signals(active=3, queued=0, p99=0.01)
    assert policy.target(under) == 3
    assert policy.target(under) == 2


def test_p99_policy_quiet_window_falls_back_to_queue_pressure():
    policy = P99TargetAutoscaler(target_p99_s=0.1, patience=1)
    # No completions but a standing queue deeper than the fleet: grow.
    assert policy.target(signals(active=2, queued=5, p99=None)) == 3
    # No completions and nothing queued: shrink.
    assert policy.target(signals(active=2, queued=0, p99=None)) == 1


def test_p99_policy_validation():
    with pytest.raises(ValueError):
        P99TargetAutoscaler(target_p99_s=0.0)
    with pytest.raises(ValueError):
        P99TargetAutoscaler(low_fraction=1.0)
    with pytest.raises(ValueError):
        P99TargetAutoscaler(patience=0)
    with pytest.raises(ValueError):
        P99TargetAutoscaler(step=0)


# --------------------------------------------------------------------------- #
# Elastic ClusterConfig validation + serialization                             #
# --------------------------------------------------------------------------- #
DEVICE = PlatformConfig(system="IntraO3", input_scale=0.01)

SPEC = PolicySpec("queue_depth_threshold",
                  {"scale_up_depth": 3.0, "scale_down_depth": 0.5})


def elastic_config(**overrides):
    kwargs = dict(autoscaler_spec=SPEC, min_devices=1, max_devices=4,
                  warmup_s=0.05, autoscale_interval_s=0.05)
    kwargs.update(overrides)
    return ClusterConfig.homogeneous(2, DEVICE, **kwargs)


def test_elastic_config_validation():
    with pytest.raises(ValueError):
        elastic_config(autoscaler_spec=PolicySpec("nope"))
    with pytest.raises(ValueError):
        elastic_config(min_devices=0)
    with pytest.raises(ValueError):
        elastic_config(max_devices=1)       # 2 initial > max
    with pytest.raises(ValueError):
        elastic_config(min_devices=3, max_devices=4)  # 2 initial < min
    with pytest.raises(ValueError):
        elastic_config(warmup_s=-0.1)
    with pytest.raises(ValueError):
        elastic_config(autoscale_interval_s=0.0)
    # Elastic knobs without a policy are a configuration error, not a
    # silently static fleet.
    with pytest.raises(ValueError):
        ClusterConfig.homogeneous(2, DEVICE, min_devices=1)


def test_duplicate_fault_entries_rejected():
    with pytest.raises(ValueError):
        ClusterConfig.homogeneous(
            2, DEVICE, faults=(FaultSpec(0.5, 1, "failed"),
                               FaultSpec(0.5, 1, "healthy")))
    # Same time on different devices is a legal simultaneous event.
    ClusterConfig.homogeneous(
        2, DEVICE, faults=(FaultSpec(0.5, 0, "failed"),
                           FaultSpec(0.5, 1, "failed")))


def test_elastic_config_roundtrips_and_rekeys():
    config = elastic_config()
    rebuilt = ClusterConfig.from_dict(
        json.loads(json.dumps(config.to_dict())))
    assert rebuilt == config
    assert rebuilt.config_hash() == config.config_hash()
    # The autoscaler is part of the experiment identity.
    static = ClusterConfig.homogeneous(2, DEVICE)
    assert config.config_hash() != static.config_hash()
    # A non-elastic config serializes exactly as before this feature:
    # no autoscaler block means legacy cache keys are untouched.
    assert "autoscaler" not in static.to_dict()
    assert not static.elastic
    assert config.elastic


# --------------------------------------------------------------------------- #
# Controller mechanics on stub backends                                        #
# --------------------------------------------------------------------------- #
def make_elastic_stub(env, initial=1, capacity=1, service_s=0.2,
                      **config_overrides):
    cluster = ClusterConfig.homogeneous(
        initial, PlatformConfig(),
        **{**dict(autoscaler_spec=SPEC, min_devices=1, max_devices=4,
                  warmup_s=0.05, autoscale_interval_s=0.05),
           **config_overrides})
    fleet = SLOTracker(TENANTS)

    def build_shard(index):
        backend = StubBackend(env, capacity=capacity, service_s=service_s)
        tracker = SLOTracker(TENANTS, seed=index + 1)
        frontend = ServingFrontend(
            env, backend, build_policy("admission", "none"), tracker,
            TENANTS)
        return DeviceShard(index, PlatformConfig(), backend, frontend,
                           tracker)

    shards = [build_shard(index) for index in range(initial)]
    dispatcher = ClusterDispatcher(env, shards, cluster, fleet)
    controller = AutoscaleController(env, dispatcher, cluster, fleet,
                                     build_shard)
    return controller, dispatcher, fleet


def test_controller_requires_elastic_config():
    env = Environment()
    cluster = ClusterConfig.homogeneous(1, PlatformConfig())
    fleet = SLOTracker(TENANTS)
    backend = StubBackend(env)
    tracker = SLOTracker(TENANTS, seed=1)
    frontend = ServingFrontend(env, backend,
                               build_policy("admission", "none"),
                               tracker, TENANTS)
    shard = DeviceShard(0, PlatformConfig(), backend, frontend, tracker)
    dispatcher = ClusterDispatcher(env, [shard], cluster, fleet)
    with pytest.raises(ValueError):
        AutoscaleController(env, dispatcher, cluster, fleet,
                            lambda index: shard)


def test_scale_up_warms_then_joins_placement():
    env = Environment()
    controller, dispatcher, fleet = make_elastic_stub(env, initial=1)

    def driver():
        # Saturate the single device: 1 in flight, 5 queued -> depth 5.
        for i in range(6):
            dispatcher.submit(req(i, tenant=TENANTS[i % 2]))
        controller.tick(env.now)
        assert len(dispatcher.shards) == 2
        fresh = dispatcher.shards[1]
        # Warming: provisioned (meter running) but not yet routable.
        assert fresh.warming and not fresh.routable
        assert fresh not in dispatcher.routable_shards()
        assert controller.events[-1][1:] == ["scale_up", 1]
        yield env.timeout(0.06)          # past warmup_s=0.05
        assert not fresh.warming and fresh.routable
        dispatcher.close()

    env.process(driver())
    env.run()
    assert fleet.offered == 6 and fleet.completed == 6


def test_scale_down_drains_retires_and_never_resurrects():
    env = Environment()
    controller, dispatcher, fleet = make_elastic_stub(env, initial=2)

    def driver():
        # Each shard: 1 in flight + 1 queued.
        for i in range(4):
            dispatcher.submit(req(i, tenant=TENANTS[i % 2]))
        victim = dispatcher.shards[1]
        queued_before = victim.queued
        assert queued_before > 0
        controller._scale_down(env.now, 1)
        # The victim stops placing; its backlog moved to the peer.
        assert victim.draining and not victim.routable
        assert dispatcher.ledger.reroutes == queued_before
        assert dispatcher.ledger.rerouted_out[victim.index] == queued_before
        assert controller.events[-1][1:] == ["scale_down", 1]
        # In-flight work finishes on the victim before it retires.
        assert victim.in_flight == 1 and not victim.retired
        yield env.timeout(0.25)
        controller.tick(env.now)
        assert victim.retired and victim.retired_at is not None
        assert controller.events[-1][1:] == ["retire", 1]
        # A late health event on the retired device is recorded but must
        # not resurrect it.
        dispatcher.set_health(1, DeviceHealth.FAILED)
        assert victim.retired and not victim.routable
        assert victim.health is DeviceHealth.HEALTHY  # transition skipped
        dispatcher.close()

    env.process(driver())
    env.run()
    # Conservation across the scale-down: nothing admitted was dropped.
    assert fleet.offered == 4 and fleet.completed == 4
    assert fleet.rejected == 0


def test_scale_down_aborts_when_no_peer_can_adopt():
    env = Environment()
    controller, dispatcher, fleet = make_elastic_stub(env, initial=2)

    def driver():
        dispatcher.set_health(0, DeviceHealth.FAILED)
        for i in range(3):
            dispatcher.submit(req(i))
        victim = dispatcher.shards[1]
        assert victim.queued > 0
        controller._scale_down(env.now, 1)
        # Only survivor: the drain found no adoptive peer, so the
        # scale-down is aborted rather than stranding admitted work.
        assert not victim.draining and victim.routable
        assert not any(event[1] == "scale_down"
                       for event in controller.events)
        dispatcher.close()
        yield env.timeout(0)

    env.process(driver())
    env.run()
    assert fleet.completed == 3


def test_no_scale_up_after_arrivals_closed():
    env = Environment()
    controller, dispatcher, fleet = make_elastic_stub(env, initial=1)

    def driver():
        for i in range(6):
            dispatcher.submit(req(i))
        dispatcher.close()
        # Queue depth says grow, but no arrivals are coming: capacity
        # added now could never serve a request.
        controller.tick(env.now)
        assert len(dispatcher.shards) == 1
        assert controller.events == []
        yield env.timeout(0)

    env.process(driver())
    env.run()
    assert fleet.completed == 6


def test_targets_clamp_to_fleet_bounds():
    env = Environment()
    controller, dispatcher, _fleet = make_elastic_stub(
        env, initial=2, min_devices=2, max_devices=2)

    def driver():
        # Deep queues want to grow; an empty fleet wants to shrink —
        # both are clamped by the [min, max] = [2, 2] pin.
        for i in range(8):
            dispatcher.submit(req(i))
        controller.tick(env.now)
        assert len(dispatcher.shards) == 2
        yield env.timeout(1.0)           # everything drains
        controller.tick(env.now)
        assert len(controller._active_shards()) == 2
        assert controller.events == []
        dispatcher.close()

    env.process(driver())
    env.run()


def test_control_loop_runs_on_interval_and_stops_clean():
    env = Environment()
    controller, dispatcher, fleet = make_elastic_stub(env, initial=1)
    controller.install(env)

    def driver():
        for i in range(6):
            dispatcher.submit(req(i))
        # Two control intervals in: the loop itself scaled up.
        yield env.timeout(0.12)
        assert len(dispatcher.shards) >= 2
        yield env.timeout(1.0)
        dispatcher.close()
        controller.stop(env)

    env.process(driver())
    env.run()                            # terminates: stop() cancelled it
    assert fleet.completed == 6
    summary = controller.summary(env.now)
    assert summary["peak_devices"] >= 2
    assert summary["total_device_seconds"] == pytest.approx(
        sum(summary["device_seconds"]))
    assert len(summary["size_timeline"]) == len(controller.size_timeline)


# --------------------------------------------------------------------------- #
# End to end on real devices                                                   #
# --------------------------------------------------------------------------- #
ELASTIC_SCENARIO = ServingScenario(
    process="diurnal", offered_rps=360.0, duration_s=0.5, seed=5,
    tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 12}),
    diurnal_period_s=0.5, diurnal_floor=0.1)

ELASTIC_CLUSTER = ClusterConfig.homogeneous(
    1, DEVICE, autoscaler_spec=SPEC, min_devices=1, max_devices=3,
    warmup_s=0.05, autoscale_interval_s=0.05)


def test_run_cluster_elastic_end_to_end():
    report = run_cluster(ELASTIC_SCENARIO, ELASTIC_CLUSTER)
    # Conservation holds across every scale event.
    assert report.offered == report.admitted + report.rejected
    assert report.admitted == report.completed       # zero drops
    assert report.energy_j == pytest.approx(
        sum(device.energy_j for device in report.devices))
    # The fleet actually moved and the accounting captured it.
    summary = report.autoscaler
    assert summary is not None
    assert summary["peak_devices"] > 1
    assert any(event[1] == "scale_up" for event in summary["events"])
    assert len(report.devices) == len(summary["device_seconds"])
    assert summary["total_device_seconds"] == pytest.approx(
        sum(summary["device_seconds"]))
    # Elastic provisioning costs less than always-max over the same run.
    assert summary["total_device_seconds"] \
        < summary["max_devices"] * report.makespan_s + 1e-9
    rebuilt = ClusterReport.from_dict(
        json.loads(json.dumps(report.to_dict())))
    assert rebuilt.to_dict() == report.to_dict()


def test_elastic_run_is_deterministic():
    first = run_cluster(ELASTIC_SCENARIO, ELASTIC_CLUSTER)
    second = run_cluster(ELASTIC_SCENARIO, ELASTIC_CLUSTER)
    assert first.to_dict() == second.to_dict()


def test_static_report_has_no_autoscaler_section():
    report = run_cluster(
        ELASTIC_SCENARIO, ClusterConfig.homogeneous(2, DEVICE))
    assert report.autoscaler is None
    assert "autoscaler" not in report.to_dict()


def test_parallel_session_rejects_elastic_cluster():
    with pytest.raises(ValueError):
        ParallelClusterSession(ELASTIC_SCENARIO, ELASTIC_CLUSTER)
