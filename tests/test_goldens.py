"""Golden-file regression tests for the three report types.

Each test runs one small, fully deterministic simulation, serializes its
report, and compares the result byte-for-byte against a checked-in JSON
fixture in ``tests/goldens/``.  This pins the *complete* observable
output of the simulator — timing, energy, counters, percentiles — so an
unintended behavior change anywhere in the stack shows up as a readable
fixture diff instead of a silent drift.

After an intentional change, regenerate and commit the fixtures:

    python -m pytest tests/test_goldens.py --update-goldens

The round-trip half of each test (``from_dict(to_dict(x))`` reproduces
``to_dict(x)``) is independent of the fixtures and always enforced.
"""

import json

from repro.cluster import ClusterReport, ClusterSession
from repro.core.accelerator import ExecutionReport
from repro.eval import run_system
from repro.platform import ClusterConfig, FaultSpec, PlatformConfig
from repro.policy import PolicySpec
from repro.serve import (
    ServingReport,
    ServingScenario,
    ServingSession,
    TenantSpec,
)
from repro.workloads import homogeneous_workload

from helpers import check_golden

DEVICE = PlatformConfig(system="IntraO3", input_scale=0.01)

SCENARIO = ServingScenario(
    process="poisson", offered_rps=60.0, duration_s=0.3, seed=21,
    tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 8}))


def roundtrip(report_cls, report):
    """JSON round-trip must be lossless for every report class."""
    payload = report.to_dict()
    rebuilt = report_cls.from_dict(json.loads(json.dumps(payload)))
    assert rebuilt.to_dict() == payload
    return payload


def test_execution_report_golden(update_goldens):
    report = run_system(DEVICE.with_overrides(instances=2),
                        homogeneous_workload("ATAX", instances=2,
                                             input_scale=0.01),
                        workload_name="ATAX")
    payload = roundtrip(ExecutionReport, report)
    check_golden("execution_report", payload, update=update_goldens)


def test_serving_report_golden(update_goldens):
    report = ServingSession(SCENARIO, DEVICE).run()
    payload = roundtrip(ServingReport, report)
    check_golden("serving_report", payload, update=update_goldens)


def test_learned_serving_report_golden(update_goldens):
    """Pins the learned snapshot (model coefficients, exploration and
    feedback counters) along with the ordinary metrics, so a drift in
    the exploration schedule or the ridge solver is fixture-visible."""
    scenario = SCENARIO.with_overrides(
        admission=PolicySpec("adaptive_admission"),
        dispatch_spec=PolicySpec("epsilon_greedy_dispatch"))
    report = ServingSession(scenario, DEVICE).run()
    payload = roundtrip(ServingReport, report)
    assert "learned" in payload
    check_golden("learned_serving_report", payload,
                 update=update_goldens)


def test_cluster_report_golden(update_goldens):
    cluster = ClusterConfig.homogeneous(
        2, DEVICE, placement="least_outstanding",
        faults=(FaultSpec(0.1, 0, "degraded"),))
    report = ClusterSession(SCENARIO, cluster).run()
    payload = roundtrip(ClusterReport, report)
    check_golden("cluster_report", payload, update=update_goldens)
