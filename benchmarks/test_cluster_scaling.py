"""Cluster scaling: fleet goodput vs. device count past the single-device knee.

The scale-out counterpart of the serving saturation sweep: one offered
load well past the single-device p99-SLO knee (~240 rps at scale 0.01) is
served by fleets of 1, 2 and 4 FlashAbacus devices, and the sweep asserts
the system-level claim that motivates sharding across self-governed
boards — fleet goodput scales near-linearly with device count, and a
mid-run device failure reroutes queued traffic without dropping a single
admitted request.
"""

from repro.cluster import run_cluster
from repro.cluster.parallel import ParallelConfig
from repro.eval import format_scaling_sweep, scaling_sweep
from repro.platform import ClusterConfig, FaultSpec, PlatformConfig
from repro.policy import PolicySpec
from repro.serve import ServingScenario, TenantSpec

from bench_common import BENCH_ORCHESTRATOR, run_once

CLUSTER_INPUT_SCALE = 0.01
CLUSTER_SLO_S = 0.25
#: Past the single-device knee (the serving sweep finds it at ~240 rps).
CLUSTER_OFFERED_RPS = 720.0
CLUSTER_DEVICE_COUNTS = (1, 2, 4)

SCENARIO = ServingScenario(
    process="poisson", duration_s=1.5, seed=3,
    tenants=(TenantSpec("tenant-a", 1.0, CLUSTER_SLO_S),
             TenantSpec("tenant-b", 1.0, CLUSTER_SLO_S)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 24}))

DEVICE = PlatformConfig(system="IntraO3", input_scale=CLUSTER_INPUT_SCALE)


def test_cluster_scaling_sweep(benchmark):
    """Fleet goodput scales >= 1.8x (1 -> 2) and >= 3x (1 -> 4)."""
    # The sweep's round-robin cells are eligible for the epoch-parallel
    # runner (byte-identical reports, shared cache entries with serial),
    # so the CI smoke exercises the parallel path end to end.
    points = run_once(
        benchmark, scaling_sweep, CLUSTER_DEVICE_COUNTS,
        CLUSTER_OFFERED_RPS, scenario=SCENARIO, device_config=DEVICE,
        orchestrator=BENCH_ORCHESTRATOR,
        parallel_config=ParallelConfig())
    print("\n" + format_scaling_sweep(points, slo_s=CLUSTER_SLO_S))
    by_count = {p.device_count: p for p in points}
    single = by_count[1]
    # The offered load sits past the single device's knee: it sheds load.
    assert single.rejected > 0
    assert single.goodput_rps > 0
    # Fleet goodput scales with device count at fixed offered load.
    assert by_count[2].goodput_rps >= 1.8 * single.goodput_rps
    assert by_count[4].goodput_rps >= 3.0 * single.goodput_rps
    # The four-device fleet absorbs the whole load inside the SLO.
    four = by_count[4]
    assert four.p99_s is not None and four.p99_s <= CLUSTER_SLO_S
    # Conservation holds at every fleet size.
    for point in points:
        assert point.admitted == point.completed


def test_cluster_failure_drill(benchmark):
    """A mid-run device failure reroutes traffic without dropping requests."""
    drill = ClusterConfig.homogeneous(
        2, DEVICE, faults=(FaultSpec(0.5, 1, "failed"),))
    report = run_once(benchmark, run_cluster,
                      SCENARIO.with_overrides(
                          offered_rps=CLUSTER_OFFERED_RPS),
                      drill)
    # The failed device's backlog was rerouted, and every admitted
    # request still completed (fail-stop with drain: in-flight work
    # finishes on the failing board, queued work moves).
    assert report.reroutes > 0
    assert report.admitted == report.completed
    assert report.placement_stats["final_health"] == ["healthy", "failed"]
    # The surviving device adopted the rerouted backlog.
    assert report.placement_stats["rerouted_in"][0] == report.reroutes
    assert report.placement_stats["rerouted_out"][1] == report.reroutes
    # After the failure, new traffic only lands on the surviving device:
    # the failed one served strictly less than the round-robin half.
    routed = report.placement_stats["routed"]
    assert routed[1] < routed[0]
