"""Tests for the experiment orchestrator: registry, cache, parallel runner."""

import json
import multiprocessing

import pytest

from repro.eval import (
    ExperimentOrchestrator,
    ExperimentSpec,
    ResultCache,
    WorkloadSpec,
    default_orchestrator,
    fig10a_homogeneous_throughput,
    fig11_latency,
    set_default_orchestrator,
)
from repro.platform import PlatformConfig

SCALE = 0.02


def _spec(system="IntraO3", name="ATAX", kind="homogeneous", **overrides):
    kwargs = {"system": system, "instances": 2, "input_scale": SCALE}
    kwargs.update(overrides)
    return ExperimentSpec(workload=WorkloadSpec(kind, name),
                          config=PlatformConfig(**kwargs))


# --------------------------------------------------------------------------- #
# WorkloadSpec                                                                 #
# --------------------------------------------------------------------------- #
def test_workload_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        WorkloadSpec("imaginary", "ATAX")


def test_workload_spec_builds_each_kind():
    config = PlatformConfig(instances=2, input_scale=SCALE)
    assert len(WorkloadSpec("homogeneous", "ATAX").build(config)) == 2
    mix = WorkloadSpec("heterogeneous", "MX1").build(config)
    assert len(mix) > 2   # several applications x 2 instances each
    assert len(WorkloadSpec("realworld", "bfs").build(config)) == 2


def test_workload_spec_roundtrip():
    spec = WorkloadSpec("realworld", "wc")
    assert WorkloadSpec.from_dict(spec.to_dict()) == spec


# --------------------------------------------------------------------------- #
# ExperimentSpec keys                                                          #
# --------------------------------------------------------------------------- #
def test_experiment_key_structure_and_stability():
    spec = _spec()
    key = spec.key
    assert key.system == "IntraO3"
    assert key.workload == "ATAX"
    assert key == _spec().key
    assert key != _spec(system="InterSt").key
    assert key != _spec(input_scale=0.04).key
    # Same workload name, different kind: the hash keeps them apart.
    assert _spec(name="ATAX").key != \
        ExperimentSpec(WorkloadSpec("realworld", "ATAX"),
                       _spec().config).key


# --------------------------------------------------------------------------- #
# ResultCache                                                                  #
# --------------------------------------------------------------------------- #
def test_result_cache_disk_roundtrip(tmp_path):
    spec = _spec()
    report = spec.execute()
    cache = ResultCache(tmp_path)
    cache.put(spec.key, report, spec)
    # A fresh cache instance must hydrate the report from disk.
    fresh = ResultCache(tmp_path)
    restored = fresh.get(spec.key)
    assert restored is not None
    assert restored.to_dict() == report.to_dict()
    assert fresh.stats["hits"] == 1


def test_result_cache_survives_corrupt_entries(tmp_path):
    spec = _spec()
    cache = ResultCache(tmp_path)
    cache.put(spec.key, spec.execute(), spec)
    for path in tmp_path.glob("*.json"):
        path.write_text("{not json")
    fresh = ResultCache(tmp_path)
    assert fresh.get(spec.key) is None   # miss, not a crash


def test_result_cache_clear_spares_unrelated_files(tmp_path):
    """clear() only deletes files matching the cache's own naming scheme."""
    spec = _spec()
    cache = ResultCache(tmp_path)
    cache.put(spec.key, spec.execute(), spec)
    bystander = tmp_path / "results__final__v2.json"
    bystander.write_text("{}")
    cache.clear()
    assert bystander.exists()
    assert len(cache) == 0
    assert ResultCache(tmp_path).get(spec.key) is None


def test_result_cache_memory_only():
    cache = ResultCache(None)
    spec = _spec()
    assert cache.get(spec.key) is None
    cache.put(spec.key, spec.execute())
    assert cache.get(spec.key) is not None
    assert len(cache) == 1


# --------------------------------------------------------------------------- #
# Orchestrator: caching                                                        #
# --------------------------------------------------------------------------- #
def test_second_run_of_experiment_set_is_served_from_cache(tmp_path):
    """Acceptance: Fig. 10 + Fig. 11 set twice -> second run all cache hits."""
    workloads = ("ATAX", "MVT")
    systems = ("SIMD", "InterDy", "IntraO3")

    def experiment_set(orch):
        fig10 = fig10a_homogeneous_throughput(
            workloads=workloads, systems=systems, instances=2,
            input_scale=SCALE, orchestrator=orch)
        fig11 = fig11_latency(
            workloads=workloads, systems=systems, input_scale=SCALE,
            orchestrator=orch)
        return fig10, fig11

    first_orch = ExperimentOrchestrator(cache_dir=tmp_path)
    first = experiment_set(first_orch)
    assert first_orch.simulations_run > 0

    second_orch = ExperimentOrchestrator(cache_dir=tmp_path)
    second = experiment_set(second_orch)
    assert second_orch.simulations_run == 0          # nothing re-simulated
    assert second_orch.cache.hits > 0
    assert second == first                           # identical figure data


def test_fig11_reuses_fig10_simulations_within_one_orchestrator():
    """fig10 and fig11 share (system, workload, config) runs via the cache."""
    orch = ExperimentOrchestrator()
    fig10a_homogeneous_throughput(workloads=("ATAX",), systems=("SIMD",),
                                  instances=2, input_scale=SCALE,
                                  orchestrator=orch)
    runs_after_fig10 = orch.simulations_run
    # fig11 needs the same (SIMD, ATAX) run with identical sizing...
    fig11_latency(workloads=("ATAX",), systems=("SIMD",), input_scale=SCALE,
                  orchestrator=orch)
    # ...but fig11's homogeneous default is 6 instances vs. our explicit 2,
    # so this is a different config hash and must re-run.
    assert orch.simulations_run == runs_after_fig10 + 1
    # Re-invoking fig10 exactly as before is free.
    fig10a_homogeneous_throughput(workloads=("ATAX",), systems=("SIMD",),
                                  instances=2, input_scale=SCALE,
                                  orchestrator=orch)
    assert orch.simulations_run == runs_after_fig10 + 1


def test_default_instances_share_key_with_explicit_paper_default():
    """instances=None and the explicit paper default are the same simulation."""
    implicit = _spec(instances=None)
    explicit = _spec(instances=6)     # homogeneous paper default
    assert implicit.key == explicit.key
    hetero_implicit = _spec(kind="heterogeneous", name="MX1", instances=None)
    hetero_explicit = _spec(kind="heterogeneous", name="MX1", instances=4)
    assert hetero_implicit.key == hetero_explicit.key
    # A non-default count is still a distinct experiment.
    assert _spec(instances=2).key != explicit.key


def test_run_deduplicates_identical_specs():
    orch = ExperimentOrchestrator()
    results = orch.run([_spec(), _spec()])
    assert len(results) == 1
    assert orch.simulations_run == 1


def test_registry_records_and_resolves_experiments():
    orch = ExperimentOrchestrator()
    specs = [_spec(system="SIMD"), _spec(system="IntraO3")]
    orch.run(specs)
    seen = orch.experiments()
    assert [s.key for s in seen] == [s.key for s in specs]
    assert orch.spec_for(specs[0].key).config.system == "SIMD"
    assert orch.spec_for(_spec(system="InterSt").key) is None


def test_from_env_rejects_non_integer_parallel(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "auto")
    with pytest.raises(ValueError, match="REPRO_PARALLEL"):
        ExperimentOrchestrator.from_env()


def test_from_env_rejects_negative_parallel(monkeypatch):
    """A negative count is a config error, not a silent one-worker clamp."""
    monkeypatch.setenv("REPRO_PARALLEL", "-8")
    with pytest.raises(ValueError, match="REPRO_PARALLEL"):
        ExperimentOrchestrator.from_env()


# --------------------------------------------------------------------------- #
# Orchestrator: parallel execution                                             #
# --------------------------------------------------------------------------- #
def test_parallel_sweep_matches_serial_results():
    """Acceptance: parallel sweep over >= 4 configs == serial results."""
    systems = ("SIMD", "InterSt", "InterDy", "IntraO3")
    make = lambda: [_spec(system=s) for s in systems]  # noqa: E731

    serial = ExperimentOrchestrator(workers=1).run(make())
    parallel_orch = ExperimentOrchestrator(workers=4)
    parallel = parallel_orch.run(make(), parallel=True)

    assert set(serial) == set(parallel) and len(serial) == 4
    for key in serial:
        assert serial[key].to_dict() == parallel[key].to_dict()


def test_parallel_results_are_cached_like_serial(tmp_path):
    orch = ExperimentOrchestrator(cache_dir=tmp_path, workers=4)
    orch.run([_spec(system=s) for s in ("SIMD", "InterSt", "InterDy",
                                        "IntraO3")])
    assert len(list(tmp_path.glob("*.json"))) == 4
    again = ExperimentOrchestrator(cache_dir=tmp_path, workers=4)
    again.run([_spec(system=s) for s in ("SIMD", "InterSt", "InterDy",
                                         "IntraO3")])
    assert again.simulations_run == 0


def test_failed_experiment_does_not_discard_sibling_results(tmp_path):
    """One bad spec raises, but completed siblings are cached first."""
    good = [_spec(system=s) for s in ("SIMD", "IntraO3")]
    bad = _spec(instances=0)   # zero instances -> workload builder raises
    orch = ExperimentOrchestrator(cache_dir=tmp_path)
    with pytest.raises(ValueError):
        orch.run(good + [bad])
    # Both successful simulations were persisted before the error surfaced.
    assert len(list(tmp_path.glob("*.json"))) == 2
    again = ExperimentOrchestrator(cache_dir=tmp_path)
    again.run(good)
    assert again.simulations_run == 0


def test_wrong_shaped_cache_entry_is_a_miss(tmp_path):
    spec = _spec()
    cache = ResultCache(tmp_path)
    cache.put(spec.key, spec.execute(), spec)
    for path in tmp_path.glob("*.json"):
        path.write_text(json.dumps({"report": {"system": "SIMD",
                                               "energy": None}}))
    fresh = ResultCache(tmp_path)
    assert fresh.get(spec.key) is None


def test_compare_bundles_reports_by_system():
    orch = ExperimentOrchestrator()
    comparison = orch.compare(WorkloadSpec("homogeneous", "ATAX"),
                              ("SIMD", "IntraO3"),
                              PlatformConfig(instances=2, input_scale=SCALE))
    assert set(comparison.reports) == {"SIMD", "IntraO3"}
    assert comparison.reports["IntraO3"].system == "IntraO3"
    assert comparison.throughput("IntraO3") > comparison.throughput("SIMD")


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        ExperimentOrchestrator(workers=0)


def test_parallel_request_respects_worker_capacity(monkeypatch):
    """workers=1 is a hard bound: parallel=True must not spawn a pool."""
    import multiprocessing

    def forbidden(*args, **kwargs):
        raise AssertionError("a workers=1 orchestrator must stay serial")

    monkeypatch.setattr(multiprocessing, "get_context", forbidden)
    orch = ExperimentOrchestrator(workers=1)
    results = orch.run([_spec(system=s) for s in ("SIMD", "IntraO3")],
                       parallel=True)
    assert len(results) == 2


def test_cache_key_includes_revision(monkeypatch):
    from repro.eval import orchestrator as orch_mod
    before = _spec().key
    monkeypatch.setattr(orch_mod, "CACHE_REVISION", orch_mod.CACHE_REVISION + 1)
    assert _spec().key.config_hash != before.config_hash


# --------------------------------------------------------------------------- #
# Default orchestrator                                                         #
# --------------------------------------------------------------------------- #
def test_default_orchestrator_env_configuration(tmp_path, monkeypatch):
    set_default_orchestrator(None)
    try:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_PARALLEL", "3")
        orch = default_orchestrator()
        assert orch.cache.cache_dir == tmp_path / "cache"
        assert orch.workers == 3
        assert default_orchestrator() is orch   # process-wide singleton
    finally:
        set_default_orchestrator(None)


def test_cache_files_record_experiment_metadata(tmp_path):
    orch = ExperimentOrchestrator(cache_dir=tmp_path)
    spec = _spec()
    orch.run([spec])
    (path,) = tmp_path.glob("*.json")
    payload = json.loads(path.read_text())
    assert payload["workload"] == {"kind": "homogeneous", "name": "ATAX"}
    assert payload["config"]["system"] == "IntraO3"
    assert payload["key"] == list(spec.key)


# --------------------------------------------------------------------------- #
# Orchestrator: persistent worker pool                                         #
# --------------------------------------------------------------------------- #
def test_persistent_pool_survives_across_runs():
    """A sweep's many run() batches share one pool launch."""
    with ExperimentOrchestrator(workers=2) as orch:
        orch.run([_spec(system=s) for s in ("SIMD", "InterSt")])
        assert orch.pool_launches == 1
        orch.run([_spec(system=s) for s in ("InterDy", "IntraO3")])
        assert orch.pool_launches == 1          # reused, not relaunched
        assert orch.simulations_run == 4
    assert orch._pool is None                   # context exit closed it


def test_persistent_pool_matches_serial_results():
    """Worker reuse must not leak state between batches: the reports from
    a reused pool and the serial path are identical."""
    systems = ("SIMD", "InterSt", "InterDy", "IntraO3")
    make = lambda: [_spec(system=s) for s in systems]  # noqa: E731

    serial = ExperimentOrchestrator(workers=1).run(make())
    with ExperimentOrchestrator(workers=2) as persistent_orch:
        # Two batches through the same warm pool: any state carried over
        # from batch one would corrupt batch two.
        first = persistent_orch.run(make()[:2])
        second = persistent_orch.run(make()[2:])
        persistent = {**first, **second}

    assert set(serial) == set(persistent)
    for key in serial:
        assert serial[key].to_dict() == persistent[key].to_dict()


def test_spawn_started_pool_matches_serial_results(monkeypatch):
    """The pool under the spawn start method (the macOS default): workers
    import everything afresh and receive each spec pickled."""
    monkeypatch.setattr(ExperimentOrchestrator, "_pool_context",
                        lambda self: multiprocessing.get_context("spawn"))
    systems = ("SIMD", "InterSt", "InterDy", "IntraO3")
    make = lambda: [_spec(system=s) for s in systems]  # noqa: E731

    serial = ExperimentOrchestrator(workers=1).run(make())
    with ExperimentOrchestrator(workers=2) as spawned_orch:
        spawned = spawned_orch.run(make())
        assert spawned_orch.pool_launches == 1

    assert set(serial) == set(spawned)
    for key in serial:
        assert serial[key].to_dict() == spawned[key].to_dict()


def test_close_is_idempotent_and_next_run_relaunches():
    orch = ExperimentOrchestrator(workers=2)
    orch.run([_spec(system=s) for s in ("SIMD", "InterSt")])
    assert orch.pool_launches == 1
    orch.close()
    orch.close()                                # second close is a no-op
    assert orch._pool is None
    orch.run([_spec(system=s) for s in ("InterDy", "IntraO3")])
    assert orch.pool_launches == 2              # fresh pool after close
    orch.close()


def test_broken_pool_is_torn_down_and_replaced():
    """A map-machinery failure discards the pool instead of reusing it."""
    orch = ExperimentOrchestrator(workers=2)
    pool = orch._ensure_pool()

    def exploding_map(*args, **kwargs):
        raise RuntimeError("worker pipe collapsed")

    pool.map = exploding_map
    with pytest.raises(RuntimeError, match="worker pipe collapsed"):
        orch.run([_spec(system=s) for s in ("SIMD", "InterSt")])
    assert orch._pool is None                   # clean shutdown on failure
    # The next run launches a replacement pool and completes normally.
    results = orch.run([_spec(system=s) for s in ("SIMD", "InterSt")])
    assert len(results) == 2
    assert orch.pool_launches == 2
    orch.close()


def test_serial_orchestrator_never_launches_a_pool():
    orch = ExperimentOrchestrator(workers=1)
    orch.run([_spec(system=s) for s in ("SIMD", "IntraO3")])
    assert orch.pool_launches == 0
    assert orch._pool is None
