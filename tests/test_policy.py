"""Unified policy layer: registry, PolicySpec, config plumbing.

Covers the registry contract (every registered policy in every domain
instantiates from its ``PolicySpec``, and the spec rebuilt from its dict
form has an identical content hash; unknown names and params raise with
the sorted valid choices), the PolicySpec plumbing through PlatformConfig /
ServingScenario / ClusterConfig (including the pinned serialized forms
that key the experiment cache), and the DeadlineAwareAdmission
cold-start regression.
"""

import json
import pickle
import warnings

import pytest

from repro.cluster import JoinShortestQueuePlacement
from repro.core.schedulers import OutOfOrderIntraKernelScheduler
from repro.eval.cluster import ClusterExperimentSpec
from repro.eval.orchestrator import ExperimentSpec, WorkloadSpec
from repro.eval.serving import ServingExperimentSpec
from repro.platform import ClusterConfig, PlatformConfig
from repro.policy import (
    POLICY_DOMAINS,
    PolicySpec,
    build_policy,
    policy_class,
    policy_names,
    register_policy,
)
from repro.serve import (
    DeadlineAwareAdmission,
    ServingScenario,
    TokenBucketAdmission,
)

#: Context each domain's constructors may need (what the call sites pass).
DOMAIN_CONTEXT = {
    "scheduler": {"num_workers": 4},
    "admission": {},
    "dispatch": {"weights": {"tenant-a": 1.0}},
    "placement": {"device_count": 3, "salt": 1},
    "autoscaler": {},
}


# --------------------------------------------------------------------------- #
# Registry contract                                                           #
# --------------------------------------------------------------------------- #
def test_every_registered_policy_round_trips_and_instantiates():
    for domain in POLICY_DOMAINS:
        names = policy_names(domain)
        assert names, f"domain {domain} registered no policies"
        for name in names:
            spec = PolicySpec(name)
            policy = build_policy(domain, spec, **DOMAIN_CONTEXT[domain])
            assert isinstance(policy, policy_class(domain, name))
            assert policy.policy_domain == domain
            assert policy.policy_name == name
            assert PolicySpec(**spec.to_dict()).config_hash() \
                == spec.config_hash()


def test_registry_contents_match_the_five_families():
    assert set(policy_names("scheduler")) == {
        "InterSt", "InterDy", "IntraIo", "IntraO3"}
    assert set(policy_names("admission")) == {
        "none", "queue_depth", "deadline", "token_bucket",
        "adaptive_admission"}
    assert set(policy_names("dispatch")) == {
        "round_robin", "weighted_fair", "strict_priority",
        "epsilon_greedy_dispatch"}
    assert set(policy_names("placement")) == {
        "round_robin", "least_outstanding", "tenant_affinity",
        "power_aware", "join_shortest_queue", "linucb_placement"}
    assert set(policy_names("autoscaler")) == {"queue_depth_threshold"}


def test_unknown_policy_name_lists_sorted_choices():
    for domain in POLICY_DOMAINS:
        with pytest.raises(ValueError) as excinfo:
            policy_class(domain, "definitely-not-a-policy")
        assert str(policy_names(domain)) in str(excinfo.value)


def test_unknown_policy_param_lists_valid_parameters():
    with pytest.raises(ValueError) as excinfo:
        build_policy("admission",
                     PolicySpec("queue_depth", {"bogus_knob": 1}))
    message = str(excinfo.value)
    assert "bogus_knob" in message
    assert "max_tenant_depth" in message and "max_total_depth" in message


def test_spec_params_win_over_call_site_context():
    policy = build_policy("placement", PolicySpec("tenant_affinity",
                                                  {"salt": 9}),
                          device_count=4, salt=0)
    assert policy.salt == 9
    assert policy.device_count == 4


def test_unknown_domain_rejected():
    with pytest.raises(ValueError):
        policy_names("sorting")
    with pytest.raises(ValueError):
        register_policy("sorting", "quick")


def test_duplicate_registration_of_different_class_rejected():
    with pytest.raises(ValueError):
        register_policy("scheduler",
                        "IntraO3")(JoinShortestQueuePlacement)
    # Re-registering the same class under its own name is a no-op.
    register_policy("scheduler", "IntraO3")(OutOfOrderIntraKernelScheduler)


def test_registration_needs_a_name():
    with pytest.raises(ValueError):
        register_policy("dispatch")(object)


def test_policy_param_names_reflects_signature():
    """An unknown parameter is rejected with the constructor's own names."""
    with pytest.raises(ValueError, match=r"valid parameters: "
                                         r"\['burst', 'rate_rps'\]"):
        build_policy("admission", PolicySpec("token_bucket", {"bogus": 1}))
    with pytest.raises(ValueError, match="'weights'"):
        build_policy("dispatch", PolicySpec("weighted_fair", {"bogus": 1}))


# --------------------------------------------------------------------------- #
# PolicySpec                                                                  #
# --------------------------------------------------------------------------- #
def test_policy_spec_coerce_accepts_two_spellings():
    spec = PolicySpec("deadline", {"slack_factor": 1.5})
    assert PolicySpec.coerce(spec) is spec
    assert PolicySpec.coerce("deadline") == PolicySpec("deadline")
    with pytest.raises(TypeError):
        PolicySpec.coerce(42)


def test_policy_spec_coerce_rejects_a_dict_naming_both_spellings():
    with pytest.raises(TypeError) as excinfo:
        PolicySpec.coerce({"name": "deadline",
                           "params": {"slack_factor": 1.5}})
    message = str(excinfo.value)
    assert "PolicySpec" in message and "name string" in message
    assert "dict" not in message


def test_policy_spec_requires_a_name():
    with pytest.raises(ValueError):
        PolicySpec("")


def test_policy_spec_eq_hash_contract_and_json_validation():
    # Equality and hash both derive from the canonical JSON form, so
    # equal specs always hash equal (1 vs 1.0 serialize differently and
    # are therefore *different* cache identities, consistently).
    a, b = PolicySpec("x", {"a": 1}), PolicySpec("x", {"a": 1})
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert PolicySpec("x", {"a": 1}) != PolicySpec("x", {"a": 1.0})
    # Non-JSON params fail at construction, not deep inside a sweep.
    with pytest.raises(ValueError):
        PolicySpec("x", {"a": object()})


def test_build_policy_context_never_leaks_into_var_kwargs():
    @register_policy("placement", "kwargs-sink-test")
    class KwargsSink:
        name = "kwargs-sink-test"

        def __init__(self, **opts):
            self.opts = opts

    try:
        policy = build_policy("placement", "kwargs-sink-test",
                              device_count=4, salt=9)
        # Call-site context is only passed to constructors that *name*
        # it; a **kwargs catch-all must not be polluted with internals.
        assert policy.opts == {}
        spec = PolicySpec("kwargs-sink-test", {"anything": 1})
        assert build_policy("placement", spec).opts == {"anything": 1}
    finally:
        from repro.policy.registry import _REGISTRY
        del _REGISTRY["placement"]["kwargs-sink-test"]


def test_policy_spec_is_deep_frozen_hashable_and_picklable():
    spec = PolicySpec("queue_depth", {"max_tenant_depth": 8})
    with pytest.raises(TypeError):
        spec.params["max_tenant_depth"] = 99
    assert hash(spec) == hash(PolicySpec(**spec.to_dict()))
    assert pickle.loads(pickle.dumps(spec)) == spec


# --------------------------------------------------------------------------- #
# Config plumbing (PlatformConfig / ClusterConfig / ServingScenario)          #
# --------------------------------------------------------------------------- #
def test_platform_config_scheduler_policy_syncs_and_round_trips():
    # A param-free spec names the scheduler: it is stored as the system
    # name, so both spellings are one config with one cache key.
    config = PlatformConfig(system=PolicySpec("InterDy"))
    assert config.system == "InterDy"
    by_name = PlatformConfig(system="InterDy")
    assert by_name == config
    assert by_name.config_hash() == config.config_hash()
    # A different scheduler yields a different cache identity.
    other = PlatformConfig(system=PolicySpec("InterSt"))
    assert other.config_hash() != config.config_hash()


def test_module_reload_reregistration_is_tolerated():
    import importlib

    import repro.serve.dispatch as dispatch_module
    from repro.policy.registry import _REGISTRY

    saved = dict(_REGISTRY["dispatch"])
    try:
        # Reload creates fresh class objects that re-register under the
        # same (domain, name) keys; same-origin replacement must not
        # raise (interactive sessions and pytest plugins reload modules).
        importlib.reload(dispatch_module)
        assert "round_robin" in policy_names("dispatch")
    finally:
        # Restore the originally imported classes so later tests'
        # isinstance checks against them keep holding.
        importlib.reload(dispatch_module)
        _REGISTRY["dispatch"].update(saved)


def test_platform_config_rejects_unregistered_scheduler_policy():
    with pytest.raises(ValueError):
        PlatformConfig(system=PolicySpec("NotAScheduler"))
    with pytest.raises(ValueError):
        PlatformConfig(system="NotAScheduler")
    # Schedulers take no params, so a parameterized spec is rejected.
    with pytest.raises(ValueError, match="no params"):
        PlatformConfig(system=PolicySpec("IntraO3", {"depth": 2}))


def test_cluster_config_placement_spec_syncs_and_round_trips():
    device = PlatformConfig(input_scale=0.01)
    cluster = ClusterConfig.homogeneous(
        2, device, placement=PolicySpec("tenant_affinity", {"salt": 3}))
    assert json.loads(json.dumps(cluster.to_dict()["placement"])) \
        == {"name": "tenant_affinity", "params": {"salt": 3}}
    again = ClusterConfig.homogeneous(
        2, device, placement=PolicySpec("tenant_affinity", {"salt": 3}))
    assert again == cluster
    assert again.config_hash() == cluster.config_hash()


def test_cluster_config_accepts_registry_only_placement():
    device = PlatformConfig(input_scale=0.01)
    cluster = ClusterConfig.homogeneous(2, device,
                                        placement="join_shortest_queue")
    assert cluster.placement == PolicySpec("join_shortest_queue")
    with pytest.raises(ValueError):
        ClusterConfig.homogeneous(2, device, placement="teleport")


def test_cluster_config_placement_override_clears_stale_spec():
    device = PlatformConfig(input_scale=0.01)
    cluster = ClusterConfig.homogeneous(
        2, device, placement=PolicySpec("tenant_affinity", {"salt": 3}))
    # Overriding by name replaces the whole spec: no params of the old
    # policy survive.
    overridden = cluster.with_overrides(placement="round_robin")
    assert overridden.placement == PolicySpec("round_robin")


def test_scenario_validates_the_legacy_admission_string_eagerly():
    with pytest.raises(ValueError):
        ServingScenario(admission="quue_depth")     # typo fails fast
    # The old "always" alias is gone: it fails like any unknown name,
    # and the message names the valid choices.
    with pytest.raises(ValueError) as excinfo:
        ServingScenario(admission="always")
    assert "'none'" in str(excinfo.value)
    assert "'queue_depth'" in str(excinfo.value)


def test_scenario_validates_policy_specs_eagerly():
    scenario = ServingScenario(admission="token_bucket",
                               dispatch_spec="strict_priority")
    assert scenario.admission == PolicySpec("token_bucket")
    assert scenario.dispatch_spec == PolicySpec("strict_priority")
    with pytest.raises(ValueError):
        ServingScenario(admission=PolicySpec("not-an-admission"))
    with pytest.raises(ValueError):
        ServingScenario(dispatch_spec="not-a-dispatch")


def test_scenario_admission_field_mirrors_the_spec():
    scenario = ServingScenario(admission=PolicySpec("token_bucket"))
    assert scenario.admission.name == "token_bucket"
    assert scenario.to_dict()["admission"] == {"name": "token_bucket",
                                               "params": {}}
    # Overriding by name replaces the whole spec.
    reverted = scenario.with_overrides(admission="none")
    assert reverted.admission == PolicySpec("none")
    # The defaults are specs too: queue_depth at its class default
    # depth, round-robin dispatch.
    default = ServingScenario()
    assert default.admission == PolicySpec("queue_depth")
    assert default.make_admission().max_tenant_depth == 64
    assert default.dispatch_spec == PolicySpec("round_robin")


# --------------------------------------------------------------------------- #
# Pinned serialized forms (cache keys)                                        #
# --------------------------------------------------------------------------- #
#: Platform and batch-experiment hashes recorded immediately before the
#: policy layer landed: a platform config still serializes exactly as it
#: always did, so batch results stay cached.
PRE_POLICY_PLATFORM_HASH = "f9ae47cb6e42e77b"
PRE_POLICY_EXEC_KEY_HASH = "42fd01ce248f09ed"
#: Cluster-config, serving-key and cluster-key hashes since every policy
#: selection became one field serialized as a spec dict (the one
#: documented cache-key migration of those keys).
ONE_SPELLING_CLUSTER_HASH = "a6a4840d609528e5"
ONE_SPELLING_SERVING_KEY_HASH = "085768698e487d4a"
ONE_SPELLING_CLUSTER_KEY_HASH = "2a51c79b9c6e9036"


def test_legacy_configs_hash_byte_identical_to_pre_policy_layer():
    config = PlatformConfig()
    cluster = ClusterConfig.homogeneous(2, config)
    scenario = ServingScenario()
    assert config.to_dict()["system"] == "IntraO3"
    assert cluster.to_dict()["placement"] == {"name": "round_robin",
                                              "params": {}}
    assert scenario.to_dict()["admission"] == {"name": "queue_depth",
                                               "params": {}}
    assert scenario.to_dict()["dispatch_spec"] == {"name": "round_robin",
                                                   "params": {}}
    assert config.config_hash() == PRE_POLICY_PLATFORM_HASH
    assert cluster.config_hash() == ONE_SPELLING_CLUSTER_HASH
    workload = WorkloadSpec("homogeneous", "ATAX")
    assert ExperimentSpec(workload, config).key.config_hash \
        == PRE_POLICY_EXEC_KEY_HASH
    assert ServingExperimentSpec(scenario, config).key.config_hash \
        == ONE_SPELLING_SERVING_KEY_HASH
    assert ClusterExperimentSpec(scenario, cluster).key.config_hash \
        == ONE_SPELLING_CLUSTER_KEY_HASH


# --------------------------------------------------------------------------- #
# No deprecated surface on internal paths                                     #
# --------------------------------------------------------------------------- #
def test_internal_paths_do_not_emit_deprecation_warnings():
    scenario = ServingScenario()
    config = PlatformConfig(input_scale=0.01)
    cluster = ClusterConfig.homogeneous(2, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        scenario.make_admission()
        scenario.make_dispatch()
        build_policy("scheduler", config.system, num_workers=2)
        build_policy("placement", cluster.placement, device_count=2)


# --------------------------------------------------------------------------- #
# DeadlineAwareAdmission cold start (bugfix regression)                       #
# --------------------------------------------------------------------------- #
class _View:
    """Minimal FrontendView stub."""

    def __init__(self, queued=0, in_flight=0, capacity=2):
        self.total_queued = queued
        self.in_flight = in_flight
        self.dispatch_capacity = capacity

    def queue_depth(self, tenant):
        return self.total_queued


def _request(slo=0.5):
    from repro.serve import Request
    return Request(request_id=0, tenant="a", workload="ATAX",
                   arrival_s=0.0, slo_s=slo)


def test_deadline_cold_start_window_is_bounded():
    admission = DeadlineAwareAdmission()
    # No samples yet: admits only while the backlog stays under
    # cold_start_waves (default 2) dispatch waves.
    assert admission.admit(_request(), _View(queued=1, in_flight=2))
    assert not admission.admit(_request(), _View(queued=2, in_flight=2))
    # Requests without an SLO are exempt, as before.
    assert admission.admit(_request(slo=None), _View(queued=50))
    # The first observed completion ends the cold-start window.
    admission.observe_service_time(0.01)
    assert admission.admit(_request(), _View(queued=10, in_flight=2))


def test_deadline_estimate_can_be_seeded_from_nominal_service_time():
    admission = DeadlineAwareAdmission(initial_service_s=0.2)
    # Seeded: the deadline test is live from the very first arrival, no
    # cold-start heuristic involved.  Backlog 4 over capacity 2 -> 3
    # service times = 0.6 s > 0.5 s SLO.
    assert not admission.admit(_request(slo=0.5),
                               _View(queued=2, in_flight=2))
    assert admission.admit(_request(slo=1.0),
                           _View(queued=2, in_flight=2))


def test_deadline_cold_start_waves_knob():
    wide = DeadlineAwareAdmission(cold_start_waves=10.0)
    assert wide.admit(_request(), _View(queued=10, in_flight=2))
    with pytest.raises(ValueError):
        DeadlineAwareAdmission(cold_start_waves=0.0)


# --------------------------------------------------------------------------- #
# New policies registered to prove extensibility                              #
# --------------------------------------------------------------------------- #
def test_token_bucket_spends_and_refills_on_the_arrival_timeline():
    from repro.serve import Request
    bucket = TokenBucketAdmission(rate_rps=10.0, burst=2.0)

    def arrival(t):
        return Request(request_id=0, tenant="a", workload="ATAX",
                       arrival_s=t)

    view = _View()
    assert bucket.admit(arrival(0.0), view)      # burst token 1
    assert bucket.admit(arrival(0.0), view)      # burst token 2
    assert not bucket.admit(arrival(0.0), view)  # bucket empty
    assert bucket.admit(arrival(0.1), view)      # 0.1 s * 10/s = 1 token
    assert not bucket.admit(arrival(0.1), view)
    with pytest.raises(ValueError):
        TokenBucketAdmission(rate_rps=0.0)
    with pytest.raises(ValueError):
        TokenBucketAdmission(burst=0.5)


def test_join_shortest_queue_ignores_in_flight_work():
    class Shard:
        def __init__(self, index, queued, in_flight):
            self.index = index
            self.queued = queued
            self.in_flight = in_flight
            self.capacity = 4
            self.energy_j = 0.0

    policy = build_policy("placement", "join_shortest_queue",
                          device_count=3, salt=0)
    shards = [Shard(0, 3, 0), Shard(1, 1, 9), Shard(2, 1, 0)]
    # Shortest queue wins (ties to the lowest index), in-flight ignored.
    assert policy.select(_request(), shards).index == 1
