"""Tests for the platform layer: PlatformConfig, PlatformBuilder and the
systems built from them."""

import json
from dataclasses import replace

import pytest

from repro.baseline.system import BaselineSystem
from repro.core.accelerator import FlashAbacusAccelerator
from repro.eval import run_system
from repro.hw import lwp as lwp_module
from repro.hw.spec import prototype_spec
from repro.serve import ServingScenario, ServingSession
from repro.sim.engine import Environment
from repro.platform import PlatformBuilder, PlatformConfig
from repro.workloads import heterogeneous_workload, homogeneous_workload

SCALE = 0.02


# --------------------------------------------------------------------------- #
# PlatformConfig                                                               #
# --------------------------------------------------------------------------- #
def test_config_rejects_unknown_system():
    with pytest.raises(ValueError):
        PlatformConfig(system="NotASystem")


@pytest.mark.parametrize("scale", [0, -1, 0.0, float("nan"), float("inf"),
                                   "0.5", None])
def test_config_rejects_a_bad_input_scale(scale):
    with pytest.raises(ValueError, match="input_scale"):
        PlatformConfig(input_scale=scale)


@pytest.mark.parametrize("system,count", [("IntraO3", 2), ("InterSt", 1),
                                          ("SIMD", 0)])
def test_config_rejects_an_lwp_count_without_workers(system, count):
    with pytest.raises(ValueError, match="lwp_count") as raised:
        PlatformConfig(system=system, lwp_count=count)
    assert "num_workers" not in str(raised.value)


def test_config_names_the_spec_when_its_lwp_count_leaves_no_worker():
    spec = prototype_spec()
    tiny = replace(spec, lwp=replace(spec.lwp, count=2))
    with pytest.raises(ValueError, match=r"spec\.lwp\.count"):
        PlatformConfig(system="IntraO3", spec=tiny)
    # The baseline reserves no management cores: two LWPs are two workers.
    assert PlatformConfig(system="SIMD", spec=tiny).effective_spec() is tiny


def test_config_accepts_the_smallest_worker_pools():
    PlatformConfig(system="IntraO3", lwp_count=3, input_scale=1e-6)
    PlatformConfig(system="SIMD", lwp_count=1)


def test_config_roundtrip_to_dict_from_dict():
    def build():
        return PlatformConfig(system="InterDy", lwp_count=6, instances=4,
                              input_scale=0.25, track_power_series=True,
                              features={"reserve_management_cores": True})
    config = build()
    # Every field reaches the cache-key form, and an equal config keys
    # the same.
    assert config.to_dict() == {
        "system": "InterDy", "spec": prototype_spec().as_dict(),
        "lwp_count": 6, "instances": 4, "input_scale": 0.25,
        "track_power_series": True,
        "features": {"reserve_management_cores": True}}
    assert build() == config
    assert build().config_hash() == config.config_hash()


def test_config_roundtrip_survives_json():
    config = PlatformConfig(system="SIMD", instances=2, input_scale=0.5)
    payload = json.dumps(config.to_dict())
    assert json.loads(payload) == config.to_dict()
    again = PlatformConfig(system="SIMD", instances=2, input_scale=0.5)
    assert again.config_hash() == config.config_hash()


def test_spec_roundtrip():
    data = prototype_spec().as_dict()
    assert json.loads(json.dumps(data)) == data
    assert PlatformConfig().to_dict()["spec"] == data


def test_config_hash_is_stable_and_discriminates():
    a = PlatformConfig(system="IntraO3", input_scale=0.25)
    b = PlatformConfig(system="IntraO3", input_scale=0.25)
    c = PlatformConfig(system="IntraO3", input_scale=0.5)
    d = a.with_overrides(system="InterSt")
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert a.config_hash() != d.config_hash()


def test_config_is_deeply_immutable_and_hashable():
    import pickle
    from dataclasses import FrozenInstanceError

    config = PlatformConfig(features={"x": 1})
    with pytest.raises(FrozenInstanceError):
        config.input_scale = 0.5
    with pytest.raises(TypeError):
        config.features["x"] = 2          # the toggles are frozen too
    # Hashable (content hash, consistent with __eq__) and picklable
    # (configs travel to multiprocessing workers).
    assert hash(config) == hash(PlatformConfig(features={"x": 1}))
    clone = pickle.loads(pickle.dumps(config))
    assert clone == config
    with pytest.raises(TypeError):
        clone.features["x"] = 2


def test_effective_spec_applies_lwp_override():
    config = PlatformConfig(system="SIMD", lwp_count=4)
    assert config.effective_spec().lwp.count == 4
    # and leaves everything else untouched
    assert config.effective_spec().flash == config.spec.flash
    assert PlatformConfig().effective_spec() == PlatformConfig().spec


# --------------------------------------------------------------------------- #
# PlatformBuilder                                                              #
# --------------------------------------------------------------------------- #
def test_builder_assembles_flashabacus_substrate():
    substrate = PlatformBuilder(PlatformConfig(system="IntraO3")).build()
    assert substrate.backbone is not None
    assert substrate.scratchpad is not None
    assert substrate.ssd is None and substrate.host is None
    # Two management LWPs are reserved out of the worker pool.
    assert len(substrate.cluster.workers) == substrate.spec.lwp.count - 2


def test_builder_assembles_baseline_substrate():
    substrate = PlatformBuilder(PlatformConfig(system="SIMD")).build()
    assert substrate.ssd is not None
    assert substrate.host is not None
    assert substrate.stack is not None
    assert substrate.backbone is None
    # The baseline reserves no management cores: all LWPs are workers.
    assert len(substrate.cluster.workers) == substrate.spec.lwp.count


def test_builder_tracks_power_series_toggle():
    on = PlatformBuilder(
        PlatformConfig(system="IntraO3", track_power_series=True)).build()
    off = PlatformBuilder(PlatformConfig(system="IntraO3")).build()
    assert on.power_monitor is not None
    assert off.power_monitor is None


# --------------------------------------------------------------------------- #
# The Fig. 15a functional-unit series is recorded only under the flag          #
# --------------------------------------------------------------------------- #
@pytest.fixture
def activities(monkeypatch):
    """Every cluster's ClusterActivity, in the order the test builds them."""
    made = []

    class Spy(lwp_module.ClusterActivity):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(lwp_module, "ClusterActivity", Spy)
    return made


def _simulated(report):
    """The report without the two series the flag records."""
    data = report.to_dict()
    del data["fu_series"], data["power_series"]
    return data


@pytest.mark.parametrize("system", ["IntraO3", "SIMD"])
def test_batch_run_records_the_fu_series_only_under_the_flag(system,
                                                             activities):
    reports = [
        run_system(PlatformConfig(system=system, input_scale=0.05,
                                  track_power_series=flag),
                   heterogeneous_workload("MX3", instances_per_kernel=1,
                                          input_scale=0.05),
                   workload_name="MX3")
        for flag in (False, True)]
    off, on = activities
    assert off.series is None and reports[0].fu_series is None
    assert len(on.series) > 1 and reports[1].fu_series is on.series
    # Makespan, latencies, energy and mean_active_fus, to the last bit.
    assert _simulated(reports[0]) == _simulated(reports[1])


def test_serving_session_records_the_fu_series_only_under_the_flag():
    runs = []
    for flag in (False, True):
        session = ServingSession(
            ServingScenario(process="poisson", offered_rps=200.0,
                            duration_s=0.5, seed=7),
            PlatformConfig(system="IntraO3", input_scale=0.01,
                           track_power_series=flag))
        report = session.run()
        activity = session.frontend.backend.accelerator.cluster.activity
        runs.append((report.to_dict(), activity.mean(), activity.series))
    (off, off_fus, off_series), (on, on_fus, on_series) = runs
    assert off_series is None
    assert len(on_series) > 1
    assert off["completed"] > 0
    assert (off, off_fus) == (on, on_fus)


def test_systems_reject_mismatched_substrate():
    """Each constructor builds only its own flavour of substrate."""
    with pytest.raises(ValueError, match="FlashAbacus config"):
        FlashAbacusAccelerator(config=PlatformConfig(system="SIMD"))
    with pytest.raises(ValueError, match="SIMD config"):
        BaselineSystem(config=PlatformConfig(system="IntraO3"))


def test_systems_default_to_their_own_flavour():
    assert FlashAbacusAccelerator().config == PlatformConfig()
    assert BaselineSystem().config == PlatformConfig(system="SIMD")


def test_accelerator_runs_on_prebuilt_substrate():
    """The accelerator runs on the substrate the builder assembled from
    its config, in the environment it was given."""
    env = Environment()
    accelerator = FlashAbacusAccelerator(
        env=env, config=PlatformConfig(system="InterDy"))
    assert accelerator.env is env
    assert accelerator.backbone.env is env
    report = accelerator.run_workload(
        homogeneous_workload("ATAX", instances=2, input_scale=SCALE), "ATAX")
    accelerator.shutdown()
    assert report.system == "InterDy"
    assert report.makespan_s > 0


# --------------------------------------------------------------------------- #
# The batch entry point                                                        #
# --------------------------------------------------------------------------- #
def test_run_system_accepts_platform_config():
    for system in ("SIMD", "IntraIo"):
        kernels = homogeneous_workload("ATAX", instances=2, input_scale=SCALE)
        report = run_system(PlatformConfig(system=system), kernels,
                            workload_name="ATAX")
        assert report.system == system
        assert report.workload == "ATAX"


def test_run_system_config_keyword_overrides_spec_path():
    """``lwp_count`` overrides the spec's LWP count on FlashAbacus, which
    keeps two of them for Flashvisor and Storengine."""
    kernels = homogeneous_workload("MVT", instances=2, input_scale=SCALE)
    report = run_system(PlatformConfig(system="IntraO3", lwp_count=6),
                        kernels, workload_name="MVT")
    assert len(report.per_lwp_utilization) == 4


def test_accelerator_rejects_unknown_scheduler_name():
    with pytest.raises(ValueError, match="unknown system 'RoundRobin'"):
        FlashAbacusAccelerator(config=PlatformConfig(system="RoundRobin"))


def test_baseline_lwp_count_argument_overrides_config():
    """``lwp_count`` overrides the spec's LWP count on the baseline, where
    every LWP is a worker."""
    kernels = homogeneous_workload("ATAX", instances=1, input_scale=SCALE)
    system = BaselineSystem(config=PlatformConfig(system="SIMD", lwp_count=4))
    report = system.run_workload(kernels)
    assert len(report.per_lwp_utilization) == 4


def test_run_system_explicit_spec_overrides_config_spec():
    """A config's own spec replaces the Table 1 prototype."""
    base = prototype_spec()
    small = replace(base, lwp=replace(base.lwp, count=6))
    kernels = homogeneous_workload("ATAX", instances=2, input_scale=SCALE)
    report = run_system(PlatformConfig(system="SIMD", spec=small), kernels,
                        workload_name="ATAX")
    assert len(report.per_lwp_utilization) == 6


def test_config_driven_runs_match_legacy_wrappers():
    """run_system reproduces a hand-built accelerator bit for bit."""
    config = PlatformConfig(system="IntraO3")
    accelerator = FlashAbacusAccelerator(config=config)
    by_hand = accelerator.run_workload(
        homogeneous_workload("BICG", instances=2, input_scale=SCALE), "BICG")
    configured = run_system(
        config, homogeneous_workload("BICG", instances=2, input_scale=SCALE),
        workload_name="BICG")
    assert by_hand.to_dict() == configured.to_dict()


# --------------------------------------------------------------------------- #
# Hardware template cache                                                      #
# --------------------------------------------------------------------------- #
def test_template_cache_shares_one_resolved_spec_per_config():
    from repro.platform.builder import (
        cached_effective_spec,
        clear_template_cache,
    )

    clear_template_cache()
    try:
        first = PlatformConfig(input_scale=SCALE)
        twin = PlatformConfig(input_scale=SCALE)      # equal, distinct object
        resolved = cached_effective_spec(first)
        assert resolved == first.effective_spec()
        # Equal configs hash alike and share the one frozen template.
        assert cached_effective_spec(twin) is resolved
        # A different config resolves its own template.
        other = cached_effective_spec(PlatformConfig(system="SIMD",
                                                     input_scale=SCALE))
        assert other is not resolved
    finally:
        clear_template_cache()


def test_template_cache_invalidation():
    from repro.platform import builder

    builder.clear_template_cache()
    try:
        config = PlatformConfig(input_scale=SCALE)
        builder.cached_effective_spec(config)
        assert config.config_hash() in builder._TEMPLATE_CACHE
        builder.clear_template_cache()
        assert not builder._TEMPLATE_CACHE
        # A post-invalidation lookup re-resolves rather than failing.
        assert builder.cached_effective_spec(config) \
            == config.effective_spec()
    finally:
        builder.clear_template_cache()


def test_builder_uses_cached_template():
    """Two substrates from equal configs share the frozen spec object."""
    from repro.platform.builder import clear_template_cache

    clear_template_cache()
    try:
        one = PlatformBuilder(PlatformConfig(input_scale=SCALE)).build()
        two = PlatformBuilder(PlatformConfig(input_scale=SCALE)).build()
        assert one.spec is two.spec
    finally:
        clear_template_cache()
