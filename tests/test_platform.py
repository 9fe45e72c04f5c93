"""Tests for the platform layer: PlatformConfig and PlatformBuilder."""

import json
from dataclasses import replace

import pytest

from repro.baseline.system import BaselineSystem
from repro.core.accelerator import FlashAbacusAccelerator
from repro.eval import run_system
from repro.hw.spec import prototype_spec
from repro.sim.engine import Environment
from repro.platform import (
    PlatformBuilder,
    PlatformConfig,
    build_system,
    spec_from_dict,
    spec_to_dict,
)
from repro.workloads import homogeneous_workload

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
    config = PlatformConfig(system="InterDy", lwp_count=6, instances=4,
                            input_scale=0.25, track_power_series=True,
                            features={"reserve_management_cores": True})
    clone = PlatformConfig.from_dict(config.to_dict())
    assert clone == config


def test_config_roundtrip_survives_json():
    config = PlatformConfig(system="SIMD", instances=2, input_scale=0.5)
    payload = json.dumps(config.to_dict())
    clone = PlatformConfig.from_dict(json.loads(payload))
    assert clone == config
    assert clone.config_hash() == config.config_hash()


def test_spec_roundtrip():
    spec = prototype_spec()
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_from_dict_ignores_unknown_keys():
    data = spec_to_dict(prototype_spec())
    data["lwp"]["from_the_future"] = 42
    assert spec_from_dict(data) == prototype_spec()


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
    assert substrate.interconnect is not None
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


def test_systems_reject_mismatched_substrate():
    baseline_sub = PlatformBuilder(
        PlatformConfig(system="SIMD")).build_baseline_substrate()
    with pytest.raises(ValueError):
        FlashAbacusAccelerator(substrate=baseline_sub)
    flash_sub = PlatformBuilder(
        PlatformConfig(system="IntraO3")).build_flashabacus_substrate()
    with pytest.raises(ValueError):
        BaselineSystem(substrate=flash_sub)


def test_systems_reject_conflicting_env_and_substrate():
    """A prebuilt substrate owns its Environment; a second env is an error."""
    substrate = PlatformBuilder(
        PlatformConfig(system="IntraO3")).build_flashabacus_substrate()
    with pytest.raises(ValueError, match="env"):
        FlashAbacusAccelerator(env=Environment(), substrate=substrate)
    # The substrate's own environment is fine (not a conflict).
    accelerator = FlashAbacusAccelerator(env=substrate.env,
                                         substrate=substrate)
    assert accelerator.env is substrate.env


def test_accelerator_runs_on_prebuilt_substrate():
    substrate = PlatformBuilder(
        PlatformConfig(system="InterDy")).build_flashabacus_substrate()
    accelerator = FlashAbacusAccelerator(substrate=substrate)
    assert accelerator.env is substrate.env
    assert accelerator.backbone is substrate.backbone
    report = accelerator.run_workload(
        homogeneous_workload("ATAX", instances=2, input_scale=SCALE), "ATAX")
    accelerator.shutdown()
    assert report.system == "InterDy"
    assert report.makespan_s > 0


# --------------------------------------------------------------------------- #
# Config-driven entry points                                                   #
# --------------------------------------------------------------------------- #
def test_build_system_dispatches_on_config():
    assert isinstance(build_system(PlatformConfig(system="SIMD")),
                      BaselineSystem)
    assert isinstance(build_system(PlatformConfig(system="IntraIo")),
                      FlashAbacusAccelerator)


def test_run_system_accepts_platform_config():
    kernels = homogeneous_workload("ATAX", instances=2, input_scale=SCALE)
    config = PlatformConfig(system="IntraO3")
    report = run_system(config, kernels, workload_name="ATAX")
    assert report.system == "IntraO3"
    # Identical to the name-based path (simulations are deterministic).
    kernels2 = homogeneous_workload("ATAX", instances=2, input_scale=SCALE)
    by_name = run_system("IntraO3", kernels2, workload_name="ATAX")
    assert report.to_dict() == by_name.to_dict()


def test_run_system_config_keyword_overrides_spec_path():
    kernels = homogeneous_workload("MVT", instances=2, input_scale=SCALE)
    report = run_system("SIMD", kernels, workload_name="MVT",
                        config=PlatformConfig(system="SIMD", lwp_count=4))
    assert report.system == "SIMD"
    assert len(report.per_lwp_utilization) == 4


def test_accelerator_rejects_unknown_scheduler_name():
    with pytest.raises(ValueError, match="unknown scheduler"):
        FlashAbacusAccelerator(scheduler="RoundRobin")


def test_accelerator_scheduler_argument_overrides_config_system():
    from repro import run_flashabacus

    kernels = homogeneous_workload("ATAX", instances=1, input_scale=SCALE)
    report = run_flashabacus(kernels, "InterSt",
                             config=PlatformConfig(system="IntraO3"))
    assert report.system == "InterSt"


def test_baseline_lwp_count_argument_overrides_config():
    from repro import run_baseline

    kernels = homogeneous_workload("ATAX", instances=1, input_scale=SCALE)
    report = run_baseline(kernels, lwp_count=4,
                          config=PlatformConfig(system="SIMD"))
    assert len(report.per_lwp_utilization) == 4


def test_run_system_explicit_spec_overrides_config_spec():
    from dataclasses import replace
    base = prototype_spec()
    small = replace(base, lwp=replace(base.lwp, count=6))
    kernels = homogeneous_workload("ATAX", instances=2, input_scale=SCALE)
    report = run_system("SIMD", kernels, workload_name="ATAX", spec=small,
                        config=PlatformConfig(system="SIMD"))
    assert len(report.per_lwp_utilization) == 6


def test_run_system_rejects_double_config():
    config = PlatformConfig(system="SIMD")
    with pytest.raises(ValueError):
        run_system(config, [], config=config)


def test_config_driven_runs_match_legacy_wrappers():
    """The builder path reproduces the hand-wired path bit for bit."""
    from repro import run_flashabacus

    kernels = homogeneous_workload("BICG", instances=2, input_scale=SCALE)
    legacy = run_flashabacus(kernels, scheduler="IntraO3",
                             workload_name="BICG")
    kernels2 = homogeneous_workload("BICG", instances=2, input_scale=SCALE)
    configured = run_system(PlatformConfig(system="IntraO3"), kernels2,
                            workload_name="BICG")
    assert legacy.to_dict() == configured.to_dict()


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
