"""Smoke test for the wall-clock perf harness (``pytest benchmarks/perf``).

Runs the microbenchmarks at --quick scale, checks the report shape and
the A/B speedups, and verifies the emitted ``BENCH_PERF.json``
round-trips.  The full-scale run (committed at the repo root and used
for the PR-over-PR trajectory) is ``python benchmarks/perf/perfbench.py``.
"""

import pytest

from perfbench import build_report, format_table

from repro.perf import PerfReport

#: The smoke guard is deliberately looser than the 2.0x tentpole claim:
#: quick-scale workloads on busy CI hosts jitter, and a noisy shared
#: runner must not flake the suite.  The claim itself is enforced at
#: full scale by ``perfbench.py --check`` and recorded in the committed
#: BENCH_PERF.json.
SMOKE_ENGINE_SPEEDUP_FLOOR = 1.5


@pytest.fixture(scope="module")
def quick_report():
    return build_report(quick=True, repeats=3)


def test_emits_at_least_four_named_metrics(quick_report):
    assert len(quick_report.metrics) >= 4
    for required in ("engine_events_per_sec",
                     "engine_run_until_events_per_sec",
                     "serving_obs_requests_per_sec",
                     "cluster_parallel_requests_per_sec",
                     "orchestrator_cache_hits_per_sec",
                     "flashvisor_map_requests_per_sec",
                     "range_lock_acquires_per_sec",
                     "bandwidth_pipe_transfers_per_sec",
                     "execution_chain_oldest_ready_per_sec",
                     "ftl_write_gc_groups_per_sec"):
        metric = quick_report.get(required)
        assert metric is not None, f"missing metric {required}"
        assert metric.value > 0


def test_engine_beats_seed_baseline(quick_report):
    engine = quick_report.get("engine_events_per_sec")
    assert engine is not None
    assert engine.baseline is not None and engine.baseline > 0
    assert engine.ratio is not None
    assert engine.ratio >= SMOKE_ENGINE_SPEEDUP_FLOOR, (
        f"engine speedup {engine.ratio:.2f}x fell below the smoke floor "
        f"{SMOKE_ENGINE_SPEEDUP_FLOOR}x — hot-path regression?")


def test_end_to_end_baselines_come_from_the_same_run(quick_report):
    # Every end-to-end rate here is one side of an A/B pair measured in
    # the same run on the same host: parallel against the serial session
    # on the same fleet, obs on against obs off.  Plain end-to-end rates
    # with nothing to compare against are repobench's job, not this
    # harness's.
    for name in ("cluster_parallel_requests_per_sec",
                 "serving_obs_requests_per_sec"):
        metric = quick_report.get(name)
        assert metric is not None, f"missing metric {name}"
        assert metric.baseline is not None and metric.baseline > 0


def test_parallel_runner_never_loses_to_serial(quick_report):
    # Quick-mode floor for the PR-10 tentpole pair: the epoch-parallel
    # runner must at minimum match the serial session on the same fleet
    # even on a single-core smoke host (adaptive epochs and smaller
    # per-shard event heaps, not concurrency, buy that).  The real
    # host-aware floor (1.5x multi-core / 1.1x single-core) is enforced
    # at full scale by ``perfbench.py --check``.
    par = quick_report.get("cluster_parallel_requests_per_sec")
    assert par is not None
    assert par.ratio is not None
    assert par.ratio >= 1.0, (
        f"parallel-over-serial speedup {par.ratio:.2f}x — the parallel "
        f"runner lost to the serial session on the same fleet")


def test_ipc_codec_metrics_present_and_packed_smaller(quick_report):
    # The packed wire format must beat the naive dict-of-tuples payload
    # it replaced (the baseline, measured on the same synthetic epoch).
    size = quick_report.get("parallel_ipc_bytes_per_epoch")
    assert size is not None, "missing metric parallel_ipc_bytes_per_epoch"
    assert not size.higher_is_better
    assert size.baseline is not None and size.baseline > 0
    assert size.ratio is not None and size.ratio > 1.0, (
        f"packed epoch payload ({size.value:g} B) is not smaller than "
        f"the naive encoding ({size.baseline:g} B)")
    rate = quick_report.get("parallel_ipc_roundtrips_per_sec")
    assert rate is not None
    assert rate.value > 0


def test_obs_overhead_metric_present_and_sane(quick_report):
    # Observability on vs off, interleaved A/B: the ratio is the obs
    # overhead factor.  The floor is deliberately loose — tracing plus
    # the metrics-bus sampler legitimately costs something, the guard
    # exists to catch a collapse (e.g. an accidental O(n^2) span path),
    # not to pin the exact overhead on a jittery CI host.
    obs = quick_report.get("serving_obs_requests_per_sec")
    assert obs is not None, "missing metric serving_obs_requests_per_sec"
    assert obs.value > 0
    assert obs.baseline is not None and obs.baseline > 0
    assert obs.ratio is not None
    assert obs.ratio >= 0.3, (
        f"observability overhead factor {obs.ratio:.2f}x — the "
        f"instrumented run is more than 3x slower than plain; span or "
        f"sampler hot-path regression?")


def test_report_round_trips_through_disk(quick_report, tmp_path):
    path = quick_report.save(tmp_path / "BENCH_PERF.json")
    loaded = PerfReport.load(path)
    assert loaded.to_dict() == quick_report.to_dict()
    # The human-readable table renders every metric.
    table = format_table(loaded)
    for name in loaded.metrics:
        assert name in table
