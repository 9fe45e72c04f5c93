"""The completion stream contract.

Every completed request leaves a front-end through one ordered hook list
(``ServingFrontend.completion_hooks``).  Each subscriber must hear every
completion exactly once — on every shard, scale-up shards included — and
never change another subscriber's view.  The checks below count what the
subscribers saw against the report's ``completed`` totals.
"""

from repro.cluster import ClusterSession
from repro.obs import ObsConfig
from repro.platform import ClusterConfig, PlatformConfig
from repro.policy import PolicySpec
from repro.serve import ServingScenario, ServingSession, TenantSpec

DEVICE = PlatformConfig(system="IntraO3", input_scale=0.01)

TENANTS = (TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25))


def test_serving_stream_reaches_metrics_and_learned_policies():
    scenario = ServingScenario(
        process="poisson", offered_rps=200.0, duration_s=0.5, seed=9,
        tenants=TENANTS, admission=PolicySpec("adaptive_admission"),
        dispatch_spec=PolicySpec("epsilon_greedy_dispatch"))
    report = ServingSession(scenario, DEVICE,
                            obs=ObsConfig(tracing=False)).run()
    assert report.completed > 0
    counts = report.metrics["series"]["latency_window_s.count"]
    assert sum(value for _, value in counts) == report.completed
    for domain in ("admission", "dispatch"):
        assert report.learned[domain]["feedback_events"] == report.completed


def test_elastic_fleet_stream_reaches_every_shard_subscriber():
    scenario = ServingScenario(
        process="diurnal", offered_rps=360.0, duration_s=0.5, seed=5,
        tenants=TENANTS,
        admission=PolicySpec("queue_depth", {"max_tenant_depth": 12}),
        diurnal_period_s=0.5,
        diurnal_floor=0.1)
    # A warm-up longer than the run keeps the bandit routing by least
    # outstanding work, so scale-up shards receive traffic too.
    cluster = ClusterConfig.homogeneous(
        1, DEVICE,
        placement=PolicySpec("linucb_placement", {"warmup": 10_000}),
        autoscaler_spec=PolicySpec("queue_depth_threshold"),
        min_devices=1, max_devices=3, warmup_s=0.05,
        autoscale_interval_s=0.05)
    report = ClusterSession(scenario, cluster).run()
    # Scale-up shards joined mid-run and served traffic.
    assert len(report.devices) > 1
    assert sum(device.completed for device in report.devices[1:]) > 0
    assert report.completed == sum(device.completed
                                   for device in report.devices)
    assert report.learned["placement"]["feedback_events"] \
        == report.completed
