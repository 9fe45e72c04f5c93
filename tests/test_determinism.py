"""Determinism harness: same seed, same bytes, at every layer.

Every simulation in this repository must be bit-for-bit reproducible for
a fixed seed — that is what makes the experiment result cache sound (a
cache hit must be indistinguishable from a re-run) and what makes CI
regressions attributable to code rather than noise.  These tests run the
same configuration twice through each layer — batch engine, single-device
serving, and the sharded cluster — and assert the *serialized reports*
are byte-identical, parametrized over all four scheduler combinations
(inter static/dynamic x intra inorder/ooo).
"""

import json

import pytest

from repro.cluster import ClusterSession
from repro.eval import run_system
from repro.platform import ClusterConfig, FaultSpec, PlatformConfig
from repro.policy import PolicySpec
from repro.serve import ServingScenario, ServingSession, TenantSpec
from repro.workloads import homogeneous_workload

#: The four FlashAbacus scheduler combos of Section 4.
SCHEDULERS = ("InterSt", "InterDy", "IntraIo", "IntraO3")

SCENARIO = ServingScenario(
    process="poisson", offered_rps=80.0, duration_s=0.4, seed=11,
    tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 16}))


def canonical_bytes(report) -> bytes:
    """The byte-exact serialized form determinism is asserted on."""
    return json.dumps(report.to_dict(), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def device_config(scheduler: str) -> PlatformConfig:
    return PlatformConfig(system=scheduler, input_scale=0.01)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_engine_layer_batch_run_is_deterministic(scheduler):
    config = device_config(scheduler).with_overrides(instances=2)
    kernels = lambda: homogeneous_workload("ATAX", instances=2,  # noqa: E731
                                           input_scale=0.01)
    first = run_system(config, kernels(), workload_name="ATAX")
    second = run_system(config, kernels(), workload_name="ATAX")
    assert canonical_bytes(first) == canonical_bytes(second)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_serving_layer_is_deterministic(scheduler):
    config = device_config(scheduler)
    first = ServingSession(SCENARIO, config).run()
    second = ServingSession(SCENARIO, config).run()
    assert canonical_bytes(first) == canonical_bytes(second)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_cluster_layer_is_deterministic(scheduler):
    cluster = ClusterConfig.homogeneous(
        2, device_config(scheduler),
        faults=(FaultSpec(0.2, 0, "degraded"),))
    first = ClusterSession(SCENARIO, cluster).run()
    second = ClusterSession(SCENARIO, cluster).run()
    assert canonical_bytes(first) == canonical_bytes(second)


def test_learned_serving_run_is_deterministic():
    """Learned policies are pure functions of (scenario, config, seed):
    exploration draws and model state must reproduce byte-for-byte,
    snapshots included."""
    scenario = SCENARIO.with_overrides(
        admission=PolicySpec("adaptive_admission"),
        dispatch_spec=PolicySpec("epsilon_greedy_dispatch"))
    config = device_config("IntraO3")
    first = ServingSession(scenario, config).run()
    second = ServingSession(scenario, config).run()
    assert first.learned is not None
    assert canonical_bytes(first) == canonical_bytes(second)
    # The seed steers the learned trace too (exploration is seeded, not
    # vacuously constant).
    reseeded = ServingSession(scenario.with_overrides(seed=12),
                              config).run()
    assert canonical_bytes(reseeded) != canonical_bytes(first)


def test_learned_cluster_run_is_deterministic():
    cluster = ClusterConfig.homogeneous(
        2, device_config("IntraO3"),
        placement=PolicySpec("linucb_placement"),
        faults=(FaultSpec(0.2, 0, "degraded"),))
    first = ClusterSession(SCENARIO, cluster).run()
    second = ClusterSession(SCENARIO, cluster).run()
    assert first.learned is not None
    assert canonical_bytes(first) == canonical_bytes(second)


def test_seed_actually_steers_the_serving_trace():
    """Guard against vacuous determinism (e.g. an ignored seed)."""
    config = device_config("IntraO3")
    base = ServingSession(SCENARIO, config).run()
    other = ServingSession(SCENARIO.with_overrides(seed=12), config).run()
    assert canonical_bytes(base) != canonical_bytes(other)
