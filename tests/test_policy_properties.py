"""Seeded property fuzz over every registered policy in every domain.

The registry contract, checked by generation instead of enumeration: for
any registered policy and any parameter draw, the ``PolicySpec`` naming
it must round-trip ``to_dict -> json -> from_dict`` losslessly with a
stable content hash (independent of param insertion order), and
``build_policy`` must reject unknown parameters with an actionable
error.  The draws come from one fixed-seed RNG, so a failure is a
reproducible counterexample, never flake.

Every policy selection in a config is also one field with one identity:
a bare name, its ``PolicySpec`` and the spec's dict build equal configs
with equal hashes and experiment keys.
"""

import inspect
import json
import random

import pytest

from repro.eval.cluster import ClusterExperimentSpec
from repro.eval.orchestrator import ExperimentSpec, WorkloadSpec
from repro.eval.serving import ServingExperimentSpec
from repro.platform import ClusterConfig, PlatformConfig
from repro.policy import (
    POLICY_DOMAINS,
    PolicySpec,
    build_policy,
    policy_class,
    policy_is_learned,
    policy_names,
    policy_param_names,
    resolved_policy_spec,
)
from repro.serve import ServingScenario

TRIALS_PER_POLICY = 5

#: Context each domain's constructors may need (what the call sites pass).
CONTEXT = {
    "scheduler": {"num_workers": 4},
    "admission": {"seed": 5},
    "dispatch": {"weights": {"tenant-a": 1.0}, "seed": 5},
    "placement": {"device_count": 4, "salt": 0, "seed": 5},
    "autoscaler": {},
}


def every_policy():
    for domain in POLICY_DOMAINS:
        for name in policy_names(domain):
            yield domain, name


def draw_param_value(rng):
    """One JSON-scalar parameter value (the only kind specs carry)."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randrange(-1000, 1000)
    if kind == 1:
        return round(rng.uniform(-100.0, 100.0), 4)
    if kind == 2:
        return rng.random() < 0.5
    return "".join(rng.choice("abcdefgh") for _ in range(rng.randrange(1, 8)))


def test_fuzzed_specs_round_trip_losslessly_with_stable_hashes():
    rng = random.Random(0xC0FFEE)
    for domain, name in every_policy():
        accepted = policy_param_names(domain, name)
        for _ in range(TRIALS_PER_POLICY):
            chosen = [p for p in accepted if rng.random() < 0.5]
            rng.shuffle(chosen)
            params = {p: draw_param_value(rng) for p in chosen}
            spec = PolicySpec(name, params)
            # Lossless through dicts and through actual JSON text.
            rebuilt = PolicySpec.from_dict(
                json.loads(json.dumps(spec.to_dict())))
            assert rebuilt == spec, (domain, name, params)
            assert rebuilt.canonical() == spec.canonical()
            assert rebuilt.config_hash() == spec.config_hash()
            assert hash(rebuilt) == hash(spec)
            # The content hash is insertion-order independent: the same
            # params fed in reverse order are the same cache identity.
            reversed_params = dict(reversed(list(params.items())))
            assert PolicySpec(name, reversed_params).config_hash() \
                == spec.config_hash(), (domain, name, params)


def test_config_hash_is_pinned_not_just_self_consistent():
    # A literal pin: if canonicalization (key order, separators, hash
    # truncation) ever drifts, every persisted cache key silently
    # invalidates — this fails loudly instead.
    assert PolicySpec("queue_depth", {"max_tenant_depth": 8}) \
        .config_hash() == "15f91f3fd15111cb"


def test_every_policy_rejects_unknown_params_with_valid_choices():
    for domain, name in every_policy():
        bogus = PolicySpec(name, {"definitely_bogus_knob_xyz": 1})
        with pytest.raises(ValueError) as excinfo:
            build_policy(domain, bogus, **CONTEXT[domain])
        message = str(excinfo.value)
        assert "definitely_bogus_knob_xyz" in message, (domain, name)
        assert name in message, (domain, name)


def test_every_policy_instantiates_from_its_resolved_spec():
    for domain, name in every_policy():
        resolved = resolved_policy_spec(domain, name)
        policy = build_policy(domain, resolved, **CONTEXT[domain])
        assert isinstance(policy, policy_class(domain, name))
        if policy_is_learned(domain, resolved):
            # The species contract: resolved learned specs carry every
            # defaulted constructor param explicitly (defaults are
            # behavior), but never the call-site context (the seed).
            assert resolved.params, (domain, name)
            assert "seed" not in resolved.params, (domain, name)
            assert policy.seed == CONTEXT[domain]["seed"]
        else:
            # Static specs resolve to themselves byte-for-byte, keeping
            # every pre-existing cache key intact.
            assert resolved == PolicySpec(name), (domain, name)


def _perturbed_defaults(cls, rng):
    """A valid non-default parameterization drawn from the signature.

    Floats are scaled by one common factor per draw (preserving any
    ordering constraints between float knobs, e.g. ``min_epsilon <=
    epsilon``); ints are nudged upward; everything else is left alone.
    """
    factor = 0.5 + 0.5 * rng.random()
    params = {}
    for parameter in inspect.signature(cls.__init__).parameters.values():
        default = parameter.default
        if parameter.name in ("self", "seed") \
                or default is inspect.Parameter.empty:
            continue
        if isinstance(default, bool) or default is None \
                or isinstance(default, str):
            continue
        if isinstance(default, int):
            params[parameter.name] = default + rng.randrange(0, 3)
        elif isinstance(default, float):
            params[parameter.name] = round(default * factor, 6)
    return params


def test_fuzzed_valid_parameterizations_instantiate_and_rekey():
    rng = random.Random(0xFEED)
    for domain, name in every_policy():
        cls = policy_class(domain, name)
        for _ in range(TRIALS_PER_POLICY):
            params = _perturbed_defaults(cls, rng)
            if not params:
                break               # parameterless (or context-only)
            spec = PolicySpec(name, params)
            policy = build_policy(domain, spec, **CONTEXT[domain])
            assert isinstance(policy, cls)
            # Spec params land on the instance verbatim (they are
            # constructor kwargs, not a config bag).  Some constructors
            # fold params into sub-objects (e.g. the admission model's
            # ridge) instead of storing them, so only same-named
            # attributes are checked.
            for key, value in params.items():
                if hasattr(policy, key):
                    assert getattr(policy, key) == value, \
                        (domain, name, key)
            # A different parameterization is a different cache identity.
            assert spec.config_hash() != PolicySpec(name).config_hash()


# --------------------------------------------------------------------------- #
# One spelling per policy knob                                                #
# --------------------------------------------------------------------------- #
DEVICE = PlatformConfig(input_scale=0.01)
WORKLOAD = WorkloadSpec("homogeneous", "ATAX")


def spellings(name):
    """The three ways a caller may select one parameterless policy."""
    return (name, PolicySpec(name), PolicySpec(name).to_dict())


def keys(scenario=None, device=DEVICE, cluster=None):
    """Every experiment key a config takes part in."""
    scenario = scenario if scenario is not None else ServingScenario()
    cluster = cluster if cluster is not None \
        else ClusterConfig.homogeneous(2, device)
    return (ExperimentSpec(WORKLOAD, device).key,
            ServingExperimentSpec(scenario, device).key,
            ClusterExperimentSpec(scenario, cluster).key)


def assert_one_identity(configs):
    first = configs[0]
    for config in configs[1:]:
        assert config == first
        assert config.to_dict() == first.to_dict()
    assert type(first).from_dict(
        json.loads(json.dumps(first.to_dict()))) == first


@pytest.mark.parametrize("name", policy_names("scheduler"))
def test_every_scheduler_spelling_is_one_platform_config(name):
    configs = [DEVICE.with_overrides(system=s) for s in spellings(name)]
    assert_one_identity(configs)
    assert {c.config_hash() for c in configs} == {configs[0].config_hash()}
    assert {keys(device=c) for c in configs} == {keys(device=configs[0])}


@pytest.mark.parametrize("domain, field", [
    ("admission", "admission"), ("dispatch", "dispatch_spec")])
def test_every_front_end_spelling_is_one_scenario(domain, field):
    for name in policy_names(domain):
        scenarios = [ServingScenario(**{field: s}) for s in spellings(name)]
        assert_one_identity(scenarios)
        assert {keys(scenario=s) for s in scenarios} \
            == {keys(scenario=scenarios[0])}, name


def test_every_placement_spelling_is_one_cluster_config():
    for name in policy_names("placement"):
        clusters = [ClusterConfig.homogeneous(2, DEVICE, placement=s)
                    for s in spellings(name)]
        assert_one_identity(clusters)
        assert {c.config_hash() for c in clusters} \
            == {clusters[0].config_hash()}, name
        assert {keys(cluster=c) for c in clusters} \
            == {keys(cluster=clusters[0])}, name


def test_queue_depth_bound_keys_once():
    # Regression: a depth-8 queue_depth admission had two spellings (a
    # scenario-level depth knob and a spec param) with two cache keys.
    params = {"max_tenant_depth": 8}
    via_spec = ServingScenario(admission=PolicySpec("queue_depth", params))
    via_dict = ServingScenario(
        admission={"name": "queue_depth", "params": params})
    assert via_spec == via_dict
    assert keys(scenario=via_spec) == keys(scenario=via_dict)
    assert via_spec.make_admission().max_tenant_depth == 8


def test_admission_none_carries_no_depth_knob():
    # Regression: admission="none" re-keyed when a depth knob it ignores
    # changed; the scenario now serializes no knob outside the spec.
    scenario = ServingScenario(admission="none")
    assert scenario.to_dict()["admission"] == {"name": "none", "params": {}}
    assert not [key for key in scenario.to_dict() if "depth" in key]
    assert keys(scenario=scenario) \
        == keys(scenario=ServingScenario(admission=PolicySpec("none")))


def test_system_name_and_its_spec_are_one_platform_config():
    # Regression: a scheduler spec and the system name were unequal.
    assert PlatformConfig(system="IntraIo") \
        == PlatformConfig(system=PolicySpec("IntraIo"))


def test_placement_name_and_its_spec_are_one_cluster_config():
    # Regression: a placement spec and the placement name were unequal.
    by_name = ClusterConfig.homogeneous(
        2, DEVICE, placement="join_shortest_queue")
    by_spec = ClusterConfig.homogeneous(
        2, DEVICE, placement=PolicySpec("join_shortest_queue"))
    assert by_name == by_spec
    assert by_name.config_hash() == by_spec.config_hash()
