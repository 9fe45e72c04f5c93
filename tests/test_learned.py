"""Learned policy species: model, policies, wiring, guards, serialization.

Unit-level coverage of :mod:`repro.policy.learned`: the online ridge
model actually learns, each policy's decision rule responds to
completion feedback the documented way, the front-end subscribes exactly
the policies that learn to its completion stream, the
species is recognized structurally (``learned = True``, never name
lists) by the parallel-session guard / serial cache routing, and the
report ``learned`` field follows the
emit-only-when-set discipline.
"""

import json

import pytest

from repro.cluster import ClusterSession, run_cluster
from repro.cluster.parallel import ParallelClusterSession
from repro.eval import (
    LEARNED_SCENARIOS,
    ExperimentOrchestrator,
    bursty_scenario,
    format_learned,
    learned_bakeoff,
    learned_device,
    learning_curve,
)
from repro.eval.cluster import ClusterExperimentSpec
from repro.platform import ClusterConfig, PlatformConfig
from repro.policy import (
    PolicySpec,
    build_policy,
    learned_snapshot,
    policy_is_learned,
    resolved_policy_spec,
)
from repro.policy.learned import (
    AdaptiveAdmission,
    EpsilonGreedyDispatch,
    LinUCBPlacement,
    OnlineLinearModel,
)
from repro.serve import (
    Request,
    RequestRecord,
    RequestStatus,
    ServingFrontend,
    ServingReport,
    ServingScenario,
    ServingSession,
    SLOTracker,
    TenantSpec,
)
from repro.sim.engine import Environment

from helpers import StubBackend

DEVICE = PlatformConfig(system="IntraO3", input_scale=0.01)

SCENARIO = ServingScenario(
    process="poisson", offered_rps=120.0, duration_s=0.4, seed=7,
    tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 16}))


def request(request_id=0, tenant="a", slo=0.25, arrival=0.0):
    return Request(request_id=request_id, tenant=tenant, workload="ATAX",
                   arrival_s=arrival, slo_s=slo)


def completed(request_id=0, tenant="a", latency=0.05, slo=0.25):
    """A record completed ``latency`` seconds after its arrival at 0."""
    return RequestRecord(request=request(request_id, tenant, slo),
                         status=RequestStatus.COMPLETED, admitted_at=0.0,
                         dispatched_at=0.0, completed_at=latency)


class View:
    """Minimal FrontendView stub."""

    def __init__(self, queued=0, in_flight=0, capacity=2):
        self.total_queued = queued
        self.in_flight = in_flight
        self.dispatch_capacity = capacity

    def queue_depth(self, tenant):
        return self.total_queued


class Shard:
    """Minimal placement-shard stub."""

    def __init__(self, index, queued=0, in_flight=0, capacity=2):
        self.index = index
        self.queued = queued
        self.in_flight = in_flight
        self.capacity = capacity
        self.energy_j = 0.0


# --------------------------------------------------------------------------- #
# OnlineLinearModel                                                            #
# --------------------------------------------------------------------------- #
def test_model_recovers_a_linear_relation():
    model = OnlineLinearModel(2, ridge=1e-6, retrain_every=1)
    for x in range(1, 41):
        model.observe((1.0, float(x)), 0.02 + 0.003 * x)
    assert model.predict((1.0, 50.0)) \
        == pytest.approx(0.02 + 0.003 * 50.0, rel=1e-3)
    assert model.count == 40
    assert model.refits >= 1


def test_model_uncertainty_shrinks_with_observations():
    model = OnlineLinearModel(2, ridge=1.0, retrain_every=4)
    probe = (1.0, 2.0)
    before = model.uncertainty(probe)
    for _ in range(32):
        model.observe(probe, 0.1)
    assert model.uncertainty(probe) < before
    # Snapshot is JSON-safe plain data.
    snapshot = model.snapshot()
    assert json.loads(json.dumps(snapshot)) == snapshot


def test_model_validates_its_knobs():
    with pytest.raises(ValueError):
        OnlineLinearModel(0)
    with pytest.raises(ValueError):
        OnlineLinearModel(2, ridge=0.0)
    with pytest.raises(ValueError):
        OnlineLinearModel(2, retrain_every=0)


# --------------------------------------------------------------------------- #
# AdaptiveAdmission                                                            #
# --------------------------------------------------------------------------- #
def test_adaptive_admission_warms_up_then_trusts_the_model():
    admission = AdaptiveAdmission(seed=3, warmup=8, epsilon=0.0,
                                  slack_factor=1.0, retrain_every=1)
    view = View(queued=4, in_flight=2, capacity=2)
    # Warm-up: admits (under the backstop) and records pending features.
    for i in range(8):
        assert admission.admit(request(request_id=i), view)
        admission.on_complete(completed(request_id=i, latency=0.5,
                                        slo=0.25))
    assert admission.feedback_events == 8
    # The model now predicts ~0.5 s at this backlog against a 0.25 s
    # SLO: the next arrival is refused.
    assert not admission.admit(request(request_id=99), view)
    # SLO-less requests are always exempt from the model test.
    assert admission.admit(request(request_id=100, slo=None), view)


def test_adaptive_admission_backstop_rejects_regardless_of_model():
    admission = AdaptiveAdmission(seed=3, backstop_waves=2.0)
    assert not admission.admit(request(), View(queued=9, in_flight=2,
                                               capacity=2))
    # Rejected requests never enter the pending map.
    assert admission._pending == {}


# --------------------------------------------------------------------------- #
# EpsilonGreedyDispatch                                                        #
# --------------------------------------------------------------------------- #
def test_dispatch_exploits_the_urgency_reward():
    dispatch = EpsilonGreedyDispatch(seed=1, warmup=0, epsilon=0.0,
                                     min_epsilon=0.0)
    dispatch.bind(["a", "b"])
    # Tenant a barely clears a tight SLO (reward ~0.9/completion);
    # tenant b is met long before its bar (reward ~0.1).
    for i in range(10):
        dispatch.on_complete(completed(request_id=i, tenant="a",
                                       latency=0.09, slo=0.1))
        dispatch.on_complete(completed(request_id=100 + i, tenant="b",
                                       latency=0.03, slo=0.3))
    queues = {"a": [object()], "b": [object()]}
    assert dispatch.select(queues) == "a"
    # Empty arms are never selected; a fully empty front-end yields None.
    assert dispatch.select({"a": [], "b": [object()]}) == "b"
    assert dispatch.select({"a": [], "b": []}) is None


def test_dispatch_tries_unpulled_arms_first_and_decays_epsilon():
    dispatch = EpsilonGreedyDispatch(seed=1, warmup=0, epsilon=0.5,
                                     epsilon_decay=0.5, min_epsilon=0.01)
    dispatch.bind(["a", "b"])
    # Pulled arm a earns a sub-optimism mean; unpulled b counts as 1.0.
    dispatch.on_complete(completed(tenant="a", latency=0.01, slo=0.3))
    epsilon_before = dispatch.current_epsilon()
    dispatch.decisions += 4
    assert dispatch.current_epsilon() < epsilon_before
    assert dispatch.current_epsilon() >= dispatch.min_epsilon
    dispatch.epsilon = 0.0          # force exploitation
    queues = {"a": [object()], "b": [object()]}
    assert dispatch.select(queues) == "b"


# --------------------------------------------------------------------------- #
# LinUCBPlacement                                                              #
# --------------------------------------------------------------------------- #
def test_linucb_warmup_routes_least_outstanding_then_learns_speed():
    placement = LinUCBPlacement(device_count=2, seed=2, warmup=2,
                                epsilon=0.0, alpha=0.0, retrain_every=1)
    shards = [Shard(0), Shard(1, queued=1)]
    # Warm-up: capacity-normalized least-outstanding (ties low index).
    assert placement.select(request(request_id=0), shards).index == 0
    placement.on_complete(completed(request_id=0, latency=0.01))
    shards[0].queued = 2
    assert placement.select(request(request_id=1), shards).index == 1
    placement.on_complete(completed(request_id=1, latency=0.50))
    # Exploitation: device 0's learned latency is ~50x lower, so it wins
    # even while busier than device 1.
    shards = [Shard(0, queued=2), Shard(1, queued=0)]
    assert placement.select(request(request_id=2), shards).index == 0


def test_linucb_never_exploits_an_unobserved_arm():
    placement = LinUCBPlacement(device_count=3, seed=2, warmup=1,
                                epsilon=0.0, retrain_every=1)
    shards = [Shard(0), Shard(1), Shard(2)]
    assert placement.select(request(request_id=0), shards).index == 0
    placement.on_complete(completed(request_id=0, latency=0.02))
    # Only arm 0 has data: exploitation may not touch arms 1/2 (a
    # zero-data prediction of 0.0 s would dogpile the unknown device).
    for i in range(1, 20):
        choice = placement.select(request(request_id=i), shards)
        assert choice.index == 0
        placement.on_complete(completed(request_id=i, latency=0.02))


def test_linucb_counts_reroutes():
    placement = LinUCBPlacement(device_count=2, seed=2)
    placement.on_reroute(record=None, from_device=0, to_device=1)
    assert placement.reroute_events == 1
    assert placement.state_snapshot()["reroute_events"] == 1


# --------------------------------------------------------------------------- #
# Species recognition and spec resolution                                      #
# --------------------------------------------------------------------------- #
def test_species_flag_is_recognized_structurally():
    assert policy_is_learned("admission", "adaptive_admission")
    assert policy_is_learned("dispatch", "epsilon_greedy_dispatch")
    assert policy_is_learned("placement", "linucb_placement")
    assert not policy_is_learned("admission", "queue_depth")
    assert not policy_is_learned("placement", "least_outstanding")


def test_resolved_spec_materializes_learned_defaults_only():
    static = PolicySpec("queue_depth", {"max_tenant_depth": 4})
    assert resolved_policy_spec("admission", static) == static
    resolved = resolved_policy_spec("placement", "linucb_placement")
    assert resolved.params["warmup"] == 24       # defaults made explicit
    assert "seed" not in resolved.params         # context stays context
    assert "device_count" not in resolved.params  # required = context
    # An explicit param wins over the default and rekeys the cell.
    tuned = resolved_policy_spec(
        "placement", PolicySpec("linucb_placement", {"warmup": 2}))
    assert tuned.params["warmup"] == 2
    assert tuned.config_hash() != resolved.config_hash()


def test_build_policy_plumbs_the_seed_context():
    policy = build_policy("admission", "adaptive_admission", seed=17)
    assert policy.seed == 17
    # An explicit spec param beats the call-site context.
    pinned = build_policy("admission",
                          PolicySpec("adaptive_admission", {"seed": 4}),
                          seed=17)
    assert pinned.seed == 4


def test_frontend_subscribes_only_learning_policies():
    env = Environment()
    tracker = SLOTracker(["a"])

    def frontend(admission, dispatch):
        return ServingFrontend(env, StubBackend(env),
                               build_policy("admission", admission),
                               tracker, ["a"],
                               dispatch=build_policy("dispatch", dispatch))

    static = frontend("queue_depth", "round_robin")
    assert static.completion_hooks == [tracker.on_completed]
    learned = frontend("adaptive_admission", "round_robin")
    assert learned.completion_hooks == [tracker.on_completed,
                                        learned.admission.on_complete]
    # Snapshot helper mirrors the same recognition.
    assert learned_snapshot({"dispatch": static.dispatch_policy}) is None
    snapshot = learned_snapshot({"admission": learned.admission})
    assert set(snapshot) == {"admission"}


# --------------------------------------------------------------------------- #
# Guards: parallel refusal, serial cache routing                               #
# --------------------------------------------------------------------------- #
def test_parallel_cluster_session_refuses_learned_policies():
    cluster = ClusterConfig.homogeneous(
        2, DEVICE, placement=PolicySpec("linucb_placement"))
    with pytest.raises(ValueError) as excinfo:
        ParallelClusterSession(SCENARIO, cluster)
    assert "learned" in str(excinfo.value)
    assert "linucb_placement" in str(excinfo.value)


def test_cluster_spec_routes_learned_cells_to_the_serial_session():
    from repro.cluster.parallel import ParallelConfig, parallel_refusal

    cluster = ClusterConfig.homogeneous(
        2, DEVICE, placement=PolicySpec("linucb_placement"))
    spec = ClusterExperimentSpec(scenario=SCENARIO, cluster=cluster,
                                 parallel=ParallelConfig(workers=2))
    assert "learned" in parallel_refusal(spec.scenario, spec.cluster)
    # execute() must silently take the serial path instead of letting
    # ParallelClusterSession raise.
    report = spec.execute()
    assert report.completed > 0
    assert report.learned is not None


# --------------------------------------------------------------------------- #
# Report serialization and end-to-end feedback accounting                      #
# --------------------------------------------------------------------------- #
def test_report_learned_field_is_emit_only_when_set():
    static = ServingSession(SCENARIO, DEVICE).run()
    assert static.learned is None
    assert "learned" not in static.to_dict()
    rebuilt = ServingReport.from_dict(
        json.loads(json.dumps(static.to_dict())))
    assert rebuilt.learned is None


def test_serving_session_snapshots_learned_state():
    scenario = SCENARIO.with_overrides(
        admission=PolicySpec("adaptive_admission"),
        dispatch_spec=PolicySpec("epsilon_greedy_dispatch"))
    report = ServingSession(scenario, DEVICE).run()
    assert set(report.learned) == {"admission", "dispatch"}
    for domain in ("admission", "dispatch"):
        snapshot = report.learned[domain]
        # Exactly one feedback event per completed request.
        assert snapshot["feedback_events"] == report.completed
        assert snapshot["seed"] == scenario.seed
    rebuilt = ServingReport.from_dict(
        json.loads(json.dumps(report.to_dict())))
    assert rebuilt.to_dict() == report.to_dict()


def test_cluster_session_feeds_the_fleet_placement_bandit():
    cluster = ClusterConfig.homogeneous(
        2, DEVICE, placement=PolicySpec("linucb_placement"))
    report = ClusterSession(SCENARIO, cluster).run()
    snapshot = report.learned["placement"]
    assert snapshot["feedback_events"] == report.completed
    assert snapshot["reroute_events"] == report.reroutes == 0
    assert run_cluster(SCENARIO, cluster).to_dict() == report.to_dict()


# --------------------------------------------------------------------------- #
# The evaluation layer (repro.eval.learned) at its quick scale                 #
# --------------------------------------------------------------------------- #
def test_learned_bakeoff_runs_every_scenario_at_quick_scale():
    with ExperimentOrchestrator(cache_dir=None, workers=1) as orchestrator:
        comparisons = learned_bakeoff(quick=True, orchestrator=orchestrator)
    assert [c.scenario for c in comparisons] == list(LEARNED_SCENARIOS)
    for comparison in comparisons:
        # One learned challenger against the static policies of its domain.
        assert len(comparison.learned_cells) == 1, comparison.scenario
        assert len(comparison.static_cells) >= 3, comparison.scenario
        for cell in comparison.cells:
            assert 0.0 <= cell.slo_compliance <= 1.0
    verdicts = {c.scenario: c.beats_best_static() for c in comparisons}
    assert verdicts["churn"] and verdicts["hetero"], verdicts
    table = format_learned(comparisons)
    assert all(scenario in table for scenario in LEARNED_SCENARIOS)
    with pytest.raises(ValueError):
        learned_bakeoff(["nope"], orchestrator=orchestrator)


def test_learning_curve_bins_every_arrival_of_one_run_once():
    scenario = bursty_scenario(duration_s=1.0)
    curve = learning_curve(scenario, windows=4)
    report = ServingSession(scenario, learned_device()).run()
    assert [w.start_s for w in curve] == [0.0, 0.25, 0.5, 0.75]
    assert curve[-1].end_s == scenario.duration_s
    assert sum(w.offered for w in curve) == report.offered
    assert sum(w.completed for w in curve) == report.completed
    assert sum(w.slo_violations for w in curve) == report.slo_violations
    assert all(0.0 <= w.slo_compliance <= 1.0 for w in curve)
    with pytest.raises(ValueError):
        learning_curve(scenario, windows=0)
