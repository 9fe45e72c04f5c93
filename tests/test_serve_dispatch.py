"""Dispatch-policy domain: queue-order selection and end-to-end wiring."""

from collections import deque

import pytest

from repro.policy import PolicySpec
from repro.serve import (
    RoundRobinDispatch,
    ServingScenario,
    StrictPriorityDispatch,
    TenantSpec,
    WeightedFairDispatch,
)


def queues(**contents):
    return {tenant: deque(items) for tenant, items in contents.items()}


def drain(policy, qs):
    """Select-and-pop until every queue is empty; returns the order."""
    order = []
    while True:
        tenant = policy.select(qs)
        if tenant is None:
            return order
        qs[tenant].popleft()
        order.append(tenant)


# --------------------------------------------------------------------------- #
# Round-robin (the pre-policy-layer behavior)                                 #
# --------------------------------------------------------------------------- #
def test_round_robin_cycles_and_skips_empty_queues():
    policy = RoundRobinDispatch()
    policy.bind(["a", "b", "c"])
    qs = queues(a=[1, 2], b=[1], c=[1, 2])
    assert drain(policy, qs) == ["a", "b", "c", "a", "c"]
    assert policy.select(qs) is None


def test_round_robin_cursor_survives_idle_scans():
    policy = RoundRobinDispatch()
    policy.bind(["a", "b"])
    qs = queues(a=[1], b=[])
    assert policy.select(qs) == "a"
    qs["a"].popleft()
    assert policy.select(qs) is None
    # New arrival for "b": the cursor (now at "b") serves it next.
    qs["b"].append(1)
    assert policy.select(qs) == "b"


# --------------------------------------------------------------------------- #
# Weighted fair                                                               #
# --------------------------------------------------------------------------- #
def test_weighted_fair_tracks_configured_shares():
    policy = WeightedFairDispatch(weights={"a": 3.0, "b": 1.0})
    policy.bind(["a", "b"])
    qs = queues(a=[0] * 8, b=[0] * 8)
    first_eight = []
    for _ in range(8):
        tenant = policy.select(qs)
        qs[tenant].popleft()
        first_eight.append(tenant)
    assert first_eight.count("a") == 6
    assert first_eight.count("b") == 2


def test_weighted_fair_is_work_conserving():
    policy = WeightedFairDispatch(weights={"a": 100.0, "b": 1.0})
    policy.bind(["a", "b"])
    qs = queues(a=[], b=[0, 0])
    # Only "b" has demand: its low weight must not idle the backend.
    assert policy.select(qs) == "b"


def test_weighted_fair_defaults_missing_tenants_to_unit_weight():
    policy = WeightedFairDispatch(weights={"a": 2.0})
    policy.bind(["a", "b"])
    qs = queues(a=[0] * 3, b=[0] * 3)
    served = []
    for _ in range(3):
        tenant = policy.select(qs)
        qs[tenant].popleft()
        served.append(tenant)
    assert served.count("a") == 2 and served.count("b") == 1


def test_weighted_fair_rejects_non_positive_weights():
    with pytest.raises(ValueError):
        WeightedFairDispatch(weights={"a": 0.0})


# --------------------------------------------------------------------------- #
# Strict priority                                                             #
# --------------------------------------------------------------------------- #
def test_strict_priority_defaults_to_declaration_order():
    policy = StrictPriorityDispatch()
    policy.bind(["gold", "bronze"])
    qs = queues(gold=[0, 0], bronze=[0, 0])
    assert drain(policy, qs) == ["gold", "gold", "bronze", "bronze"]


def test_strict_priority_ranks_listed_tenants_first():
    policy = StrictPriorityDispatch(priority={"vip": 0})
    policy.bind(["a", "vip", "b"])
    qs = queues(a=[0], vip=[0, 0], b=[0])
    assert drain(policy, qs) == ["vip", "vip", "a", "b"]


def test_strict_priority_starves_lower_ranks_under_load():
    policy = StrictPriorityDispatch(priority={"hi": 0, "lo": 1})
    policy.bind(["lo", "hi"])
    qs = queues(lo=[0] * 4, hi=[0] * 4)
    assert drain(policy, qs)[:4] == ["hi"] * 4


# --------------------------------------------------------------------------- #
# Scenario wiring                                                             #
# --------------------------------------------------------------------------- #
def test_scenario_make_dispatch_defaults_to_round_robin():
    assert isinstance(ServingScenario().make_dispatch(), RoundRobinDispatch)


def test_scenario_injects_tenant_weights_into_weighted_fair():
    scenario = ServingScenario(
        tenants=(TenantSpec("a", 3.0, 1.0), TenantSpec("b", 1.0, 1.0)),
        dispatch_spec="weighted_fair")
    policy = scenario.make_dispatch()
    policy.bind(["a", "b"])
    assert policy._weights == {"a": 3.0, "b": 1.0}


def test_scenario_explicit_dispatch_params_win_over_tenant_weights():
    scenario = ServingScenario(
        tenants=(TenantSpec("a", 3.0, 1.0), TenantSpec("b", 1.0, 1.0)),
        dispatch_spec=PolicySpec("weighted_fair",
                                 {"weights": {"a": 1.0, "b": 5.0}}))
    policy = scenario.make_dispatch()
    policy.bind(["a", "b"])
    assert policy._weights == {"a": 1.0, "b": 5.0}


# --------------------------------------------------------------------------- #
# End to end: dispatch policy shapes per-tenant outcomes                      #
# --------------------------------------------------------------------------- #
def test_strict_priority_favors_the_top_tenant_end_to_end():
    from repro.platform import PlatformConfig
    from repro.serve import ServingSession

    base = ServingScenario(
        process="poisson", offered_rps=240.0, duration_s=0.4, seed=11,
        tenants=(TenantSpec("gold", 1.0, 0.25),
                 TenantSpec("bronze", 1.0, 0.25)),
        admission=PolicySpec("queue_depth", {"max_tenant_depth": 32}))
    config = PlatformConfig(system="IntraO3", input_scale=0.01)

    fair = ServingSession(base, config).run()
    prio = ServingSession(
        base.with_overrides(
            dispatch_spec=PolicySpec("strict_priority",
                                     {"priority": {"gold": 0}})),
        config).run()

    def mean_latency(report, tenant):
        return report.per_tenant[tenant]["mean_latency_s"]

    # Under strict priority the gold tenant's mean latency drops below
    # what round-robin gives it, and bronze pays for it.
    assert mean_latency(prio, "gold") < mean_latency(fair, "gold")
    assert mean_latency(prio, "bronze") >= mean_latency(fair, "bronze")
    # Same arrivals, same totals: dispatch order moves latency, not work.
    assert prio.completed == fair.completed


def test_dispatch_policies_are_deterministic_end_to_end():
    from repro.platform import PlatformConfig
    from repro.serve import ServingSession

    config = PlatformConfig(system="InterDy", input_scale=0.01)
    for dispatch in ("round_robin", "weighted_fair", "strict_priority"):
        scenario = ServingScenario(
            process="poisson", offered_rps=120.0, duration_s=0.3, seed=5,
            dispatch_spec=dispatch)
        first = ServingSession(scenario, config).run().to_dict()
        second = ServingSession(scenario, config).run().to_dict()
        assert first == second, dispatch
