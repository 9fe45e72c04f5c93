"""A finished simulation holds no reference cycles.

Every driver builds a device graph on one environment, runs it, builds
its report and then calls :meth:`~repro.sim.engine.Environment.close`.
From then on nothing in the graph refers back to itself, so reference
counting frees all of it as soon as the caller drops the session and
the report; nothing waits for CPython's cyclic collector.  Each case
here runs with the collector off, drops what it built, and then asks a
``DEBUG_SAVEALL`` collection what only the collector could have freed:
the answer must be nothing.  A failure names the leaked types.

Each case also reads what callers read after a run (front-ends,
tracers, metrics timelines, the autoscaler), because ``close()`` must
leave the session readable.  Storengine's garbage collection, which no
driver here reaches, is covered in ``tests/test_gc_sustained.py``.
"""

import pytest

from repro.cluster import ClusterSession, ParallelClusterSession, ParallelConfig
from repro.eval.runner import SYSTEMS, run_system
from repro.obs import ObsConfig
from repro.platform import ClusterConfig, FaultSpec, PlatformConfig
from repro.policy import PolicySpec
from repro.serve import ServingScenario, ServingSession, TenantSpec
from repro.workloads import heterogeneous_workload

from helpers import cyclic_garbage

DEVICE = PlatformConfig(input_scale=0.01)
SCENARIO = ServingScenario(offered_rps=100.0, duration_s=0.3, seed=1)
FAULTS = (FaultSpec(0.1, 1, "failed"), FaultSpec(0.2, 1, "healthy"))


def serve(system):
    session = ServingSession(
        SCENARIO, PlatformConfig(system=system, input_scale=0.01),
        obs=ObsConfig())
    report = session.run()
    assert report.completed == report.admitted
    assert session.frontend.records
    assert session.tracer is not None and session.metrics is not None


def batch(system):
    kernels = heterogeneous_workload("MX1", instances_per_kernel=1,
                                     input_scale=0.02)
    report = run_system(PlatformConfig(system=system), kernels, "MX1")
    assert len(report.kernel_latencies) == len(kernels)


def cluster_with_fault():
    session = ClusterSession(
        SCENARIO, ClusterConfig.homogeneous(2, DEVICE, faults=FAULTS))
    report = session.run()
    assert report.completed == report.admitted
    assert all(shard.frontend.records for shard in session.shards)


def parallel_inline():
    session = ParallelClusterSession(
        SCENARIO, ClusterConfig.homogeneous(2, DEVICE, faults=FAULTS),
        ParallelConfig(workers=1))
    report = session.run()
    assert report.completed == report.admitted


def elastic_fleet():
    scenario = ServingScenario(
        process="diurnal", offered_rps=360.0, duration_s=0.5, seed=5,
        tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
        admission=PolicySpec("queue_depth", {"max_tenant_depth": 12}),
        diurnal_period_s=0.5, diurnal_floor=0.1)
    cluster = ClusterConfig.homogeneous(
        1, DEVICE, min_devices=1, max_devices=3, warmup_s=0.05,
        autoscale_interval_s=0.05,
        autoscaler_spec=PolicySpec("queue_depth_threshold",
                                   {"scale_up_depth": 3.0,
                                    "scale_down_depth": 0.5}))
    session = ClusterSession(scenario, cluster)
    report = session.run()
    assert report.autoscaler["peak_devices"] > 1
    assert session.autoscaler is not None


CASES = {
    "serve-IntraO3": lambda: serve("IntraO3"),
    "serve-SIMD": lambda: serve("SIMD"),
    **{f"run_system-{system}": (lambda system=system: batch(system))
       for system in SYSTEMS},
    "cluster-fault": cluster_with_fault,
    "parallel-workers1": parallel_inline,
    "elastic-fleet": elastic_fleet,
}


@pytest.mark.parametrize("driver", list(CASES))
def test_a_finished_run_is_freed_by_refcounting(driver):
    leaked = cyclic_garbage(CASES[driver])
    assert not leaked, (f"{driver} left {sum(leaked.values())} objects "
                        f"in reference cycles: {leaked.most_common(12)}")
