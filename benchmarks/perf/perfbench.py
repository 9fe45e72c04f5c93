#!/usr/bin/env python3
"""Wall-clock microbenchmarks -> ``BENCH_PERF.json``.

Measures how fast the *simulator itself* runs (host seconds, not
simulated seconds) across the four hot layers and writes the
machine-readable snapshot tracked PR-over-PR at the repo root.  It holds
the same-run A/B floors and the microbenchmarks only; end-to-end serving
and cluster wall time is ``repobench``'s job (serve-knee and
fleet-failover ``wall_s``, with regression bounds).


* ``engine_events_per_sec``        — discrete-event loop, timeout-driven
  processes; also run against the frozen pre-PR-4 seed engine
  (``engine_seed_snapshot.py``) and recorded as the metric's baseline.
* ``engine_pingpong_events_per_sec`` — event-signaling (succeed/wait)
  loop, with the same seed baseline.
* ``engine_run_until_events_per_sec`` — the timeout workload driven
  the way serving and cluster runs drive the engine: ``run_until`` with
  a count predicate and a stall watchdog.  The seed engine has no
  ``run_until``, so this rate has no baseline and no floor; it shows
  what the stop check and watchdog cost on top of ``run()``.
* ``serving_obs_requests_per_sec`` — a single-device open-loop serving
  run with the PR-7 observability layer (lifecycle tracing + metrics bus) on, interleaved
  A/B against the same run with it off, so the recorded ratio is the
  obs overhead factor (disabled-path zero cost is enforced by tests,
  not here).
* ``cluster_parallel_requests_per_sec`` — the PR-10 tentpole: a
  four-shard fleet run on the epoch-parallel runner, interleaved A/B
  against the serial session on the *same* fleet in the *same* run, so
  the recorded ratio *is* the parallel speedup.  ``--check`` enforces
  the host-aware floor from :func:`repro.perf.parallel_speedup_threshold`
  (1.5x on multi-core hosts, 1.1x on single-core where adaptive epochs
  and smaller per-shard heaps must still win) at full scale and a
  conservative 1.0x (never lose to serial) in quick mode.
* ``parallel_ipc_bytes_per_epoch`` / ``parallel_ipc_roundtrips_per_sec``
  — the packed epoch-boundary wire format: pickled size of one
  representative shard payload (baselined against the naive dict-of-
  tuples shipping it replaced, so the ratio is the shrink factor) and
  full pack → pickle → unpickle → unpack round-trips per second.
* ``orchestrator_cache_hits_per_sec`` / ``orchestrator_cache_miss_s`` —
  experiment orchestrator result-cache lookup and full-miss cost.
* ``reservoir_observes_per_sec``   — LatencyReservoir ingestion.
* ``frontend_dispatches_per_sec``  — round-robin dispatch scan over a
  wide (64-tenant) front-end against a stub backend.
* ``flashvisor_map_requests_per_sec`` — Flashvisor ``map_for_read`` plus
  ``map_for_write`` of 1 MB data sections on a bare accelerator: the
  message latency, range lock, extent translation, LWP busy accounting
  and bulk read of every screen's flash access.
* ``range_lock_acquires_per_sec``  — range-lock acquire/release pairs
  beside eight held sections.
* ``bandwidth_pipe_transfers_per_sec`` — eight processes contending for
  one DDR3L-rate ``BandwidthPipe`` (the one FIFO mechanism behind DDR3L,
  PCIe, the crossbar ports and the backbone's bulk lanes).
* ``execution_chain_oldest_ready_per_sec`` — IntraO3's pick,
  ``MultiAppExecutionChain.oldest_ready``, with eight screens in flight
  until every kernel completes.
* ``ftl_write_gc_groups_per_sec``  — page-group overwrites through
  Flashvisor's write translation on a miniature backbone, with
  Storengine's garbage collection keeping up behind them.

The last five have no baseline and no floor; they locate a slowdown in
the layer that repobench's end-to-end ``wall_s`` reports.

Run:  python benchmarks/perf/perfbench.py [--quick] [--output PATH]
See PERFORMANCE.md for how to read the output and the regression policy.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perf import (  # noqa: E402
    ENGINE_SPEEDUP_THRESHOLD,
    PerfMetric,
    PerfReport,
    Threshold,
    check_thresholds,
    measure,
    measure_ab,
    parallel_speedup_threshold,
)

SEED_ENGINE_PATH = Path(__file__).with_name("engine_seed_snapshot.py")
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PERF.json"

#: Full-scale thresholds: the tentpole claims, enforced on the committed
#: snapshot.  Quick (CI smoke) runs use deliberately looser floors —
#: shared runners jitter, and the smoke check exists to catch collapses,
#: not to re-litigate the full-scale claim on a noisy host.
FULL_CHECK_THRESHOLDS = [ENGINE_SPEEDUP_THRESHOLD,
                         parallel_speedup_threshold()]
QUICK_CHECK_THRESHOLDS = [
    Threshold("engine_events_per_sec", 1.5),
    # Conservative quick floor: on a noisy smoke runner the parallel
    # path must at minimum never lose to serial on the same fleet.
    Threshold("cluster_parallel_requests_per_sec", 1.0),
]

#: The PR-10 tentpole fleet: wide enough that per-shard event heaps are
#: meaningfully smaller than the serial shared heap, and matching the
#: ISSUE's 4-shard acceptance scenario.
FLEET_SHARDS = 4


def load_seed_engine():
    """Import the frozen pre-PR-4 engine under a private module name."""
    spec = importlib.util.spec_from_file_location(
        "repro_perf_seed_engine", SEED_ENGINE_PATH)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# --------------------------------------------------------------------------- #
# Engine microbenchmarks (run against any engine module)                       #
# --------------------------------------------------------------------------- #
def engine_timeout_events(engine_module, n_procs: int,
                          events_per_proc: int) -> float:
    """Timeout-driven process loops; returns events processed."""
    env = engine_module.Environment()

    def worker(env, period, count):
        for _ in range(count):
            yield env.timeout(period)

    for i in range(n_procs):
        env.process(worker(env, 1.0 + i * 1e-4, events_per_proc))
    env.run()
    return float(n_procs * events_per_proc)


def engine_pingpong_events(engine_module, n_pairs: int,
                           rounds: int) -> float:
    """Producer/consumer pairs signaling through events; returns events."""
    env = engine_module.Environment()

    def producer(env, box, count):
        for _ in range(count):
            yield env.timeout(1.0)
            gate = box[0]
            box[0] = env.event()
            gate.succeed(env.now)

    def consumer(env, box, count):
        for _ in range(count):
            yield box[0]

    for _ in range(n_pairs):
        box = [env.event()]
        env.process(producer(env, box, rounds))
        env.process(consumer(env, box, rounds))
    env.run()
    return float(n_pairs * rounds * 2)


def engine_run_until_events(n_procs: int, events_per_proc: int) -> float:
    """The timeout workload under ``run_until``; returns events processed.

    ``done`` counts finished workers and ``progress`` is the same count,
    with the stall horizon of a serving run (ten times the simulated
    span), so the watchdog is armed but never trips.
    """
    from repro.sim.engine import Environment

    env = Environment()
    finished = [0]

    def worker(env, period, count):
        for _ in range(count):
            yield env.timeout(period)
        finished[0] += 1

    for i in range(n_procs):
        env.process(worker(env, 1.0 + i * 1e-4, events_per_proc))
    outcome = env.run_until(lambda: finished[0] >= n_procs,
                            progress=lambda: finished[0],
                            stall_s=10.0 * 2.0 * events_per_proc)
    assert outcome == "done", outcome
    return float(n_procs * events_per_proc)


# --------------------------------------------------------------------------- #
# Serving / cluster / orchestrator / stats benchmarks                          #
# --------------------------------------------------------------------------- #
def serving_run(offered_rps: float, duration_s: float) -> float:
    """One open-loop serving run; returns requests offered."""
    from repro.platform.config import PlatformConfig
    from repro.serve.session import ServingScenario, run_serving

    scenario = ServingScenario(process="poisson", offered_rps=offered_rps,
                               duration_s=duration_s, seed=11)
    config = PlatformConfig(input_scale=0.01)
    report = run_serving(scenario, config)
    return float(report.offered)


def serving_obs_run(offered_rps: float, duration_s: float) -> float:
    """:func:`serving_run` with the full observability layer on.

    Same scenario and seed, but the session records every span and runs
    the metrics-bus sampler — paired against :func:`serving_run` so the
    recorded ratio is the observability overhead factor.
    """
    from repro.obs import ObsConfig
    from repro.platform.config import PlatformConfig
    from repro.serve.session import ServingScenario, run_serving

    scenario = ServingScenario(process="poisson", offered_rps=offered_rps,
                               duration_s=duration_s, seed=11)
    config = PlatformConfig(input_scale=0.01)
    report = run_serving(scenario, config, obs=ObsConfig())
    return float(report.offered)


def _fleet(offered_rps: float, duration_s: float):
    """The 4-shard tentpole fleet both sides of the parallel A/B run."""
    from repro.platform.cluster import ClusterConfig
    from repro.platform.config import PlatformConfig
    from repro.serve.session import ServingScenario

    scenario = ServingScenario(process="poisson", offered_rps=offered_rps,
                               duration_s=duration_s, seed=13)
    cluster = ClusterConfig.homogeneous(
        FLEET_SHARDS, PlatformConfig(input_scale=0.01))
    return scenario, cluster


def fleet_serial_run(offered_rps: float, duration_s: float) -> float:
    """The serial session on the tentpole fleet; returns requests offered."""
    from repro.cluster.session import ClusterSession

    scenario, cluster = _fleet(offered_rps, duration_s)
    report = ClusterSession(scenario, cluster).run()
    return float(report.offered)


def fleet_parallel_run(offered_rps: float, duration_s: float) -> float:
    """The epoch-parallel runner on the same fleet (auto worker count).

    Paired against :func:`fleet_serial_run` via ``measure_ab`` so the
    recorded ratio is the parallel-over-serial speedup the ``--check``
    floor enforces.  Byte-identity of the two reports is the test
    suite's job (tests/test_cluster_parallel.py); this pair only times.
    """
    from repro.cluster.parallel import ParallelConfig, run_cluster_parallel

    scenario, cluster = _fleet(offered_rps, duration_s)
    report = run_cluster_parallel(scenario, cluster, ParallelConfig())
    return float(report.offered)


def parallel_ipc_stats(n_completions: int, roundtrips: int):
    """Size and codec cost of one packed epoch-boundary payload.

    Builds a representative busy-shard boundary payload (one epoch of
    completions plus counter deltas, an eviction batch, and a health
    event), verifies the codec round-trips it losslessly, and returns
    ``(packed_bytes, naive_bytes, roundtrips_per_second)`` where
    ``naive_bytes`` is the pickled size of the dict-of-tuples form the
    packed wire format replaced.
    """
    import pickle
    import time

    from repro.cluster.parallel import pack_shard_result, unpack_shard_result

    payload = {
        "snapshot": (3, 4, 8, 1.25, "ok"),
        "admitted": {0: (n_completions + 1) // 2, 1: n_completions // 2},
        "rejected": {0: 3},
        "completions": [
            (1e-3 * i, i % 2, 4e-4 + (i % 7) * 1e-5, i % 11 == 0)
            for i in range(n_completions)],
        "evicted": [(0, [(17, 0.125, 1), (21, 0.1375, 0)])],
        "health_events": [[0, 0.15, 1, "failed"]],
    }
    packed = pack_shard_result(payload)
    wire = pickle.dumps(packed, protocol=pickle.HIGHEST_PROTOCOL)
    naive = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if unpack_shard_result(pickle.loads(wire)) != payload:
        raise RuntimeError("packed boundary payload did not round-trip")

    start = time.perf_counter()
    for _ in range(roundtrips):
        unpack_shard_result(pickle.loads(
            pickle.dumps(pack_shard_result(payload),
                         protocol=pickle.HIGHEST_PROTOCOL)))
    elapsed = time.perf_counter() - start
    return len(wire), len(naive), roundtrips / elapsed


def reservoir_observes(n_samples: int) -> float:
    """Stream ``n_samples`` into one LatencyReservoir; returns samples."""
    from repro.sim.stats import LatencyReservoir

    reservoir = LatencyReservoir(capacity=4096, seed=7)
    observe = reservoir.observe
    for i in range(n_samples):
        observe((i % 997) * 1e-4)
    return float(n_samples)


class _StubBackend:
    """Minimal ServingBackend: fixed tiny service time, capacity 4."""

    def __init__(self, env, capacity: int = 4):
        self.env = env
        self.capacity = capacity
        self.in_flight = 0

    def dispatch(self, record, on_complete):
        self.in_flight += 1

        def finish(env=self.env, record=record):
            yield env.timeout(1e-4)
            self.in_flight -= 1
            on_complete(record, env.now)

        self.env.process(finish())


def frontend_dispatches(n_tenants: int, n_requests: int) -> float:
    """Submit/dispatch/complete across a wide front-end; returns requests."""
    from repro.policy import build_policy
    from repro.serve.frontend import ServingFrontend
    from repro.serve.request import Request
    from repro.serve.slo import SLOTracker
    from repro.sim.engine import Environment

    env = Environment()
    tenants = [f"tenant-{i:02d}" for i in range(n_tenants)]
    tracker = SLOTracker(tenants)
    frontend = ServingFrontend(env, _StubBackend(env),
                               build_policy("admission", "none"),
                               tracker, tenants)

    def arrivals(env):
        for i in range(n_requests):
            yield env.timeout(1e-5)
            frontend.submit(Request(request_id=i,
                                    tenant=tenants[i % n_tenants],
                                    workload="ATAX", arrival_s=env.now))
        frontend.close()

    env.process(arrivals(env))
    env.run()
    if tracker.completed != n_requests:
        raise RuntimeError(f"frontend bench dropped requests: "
                           f"{tracker.completed}/{n_requests}")
    return float(n_requests)


def orchestrator_cache(n_hit_lookups: int):
    """Time one cache miss (full simulation) and ``n_hit_lookups`` hits.

    Returns ``(miss_seconds, hits_per_second)``.  Uses an on-disk cache
    in a temp dir so the hit path exercises the real lookup machinery.
    """
    import time

    from repro.eval.orchestrator import (
        ExperimentOrchestrator,
        ExperimentSpec,
        WorkloadSpec,
    )
    from repro.platform.config import PlatformConfig

    with tempfile.TemporaryDirectory(prefix="repro-perf-cache-") as cache:
        orchestrator = ExperimentOrchestrator(cache_dir=cache, workers=1)
        spec = ExperimentSpec(
            workload=WorkloadSpec(kind="homogeneous", name="ATAX"),
            config=PlatformConfig(instances=2, input_scale=0.05))
        start = time.perf_counter()
        orchestrator.run_one(spec)
        miss_s = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(n_hit_lookups):
            orchestrator.run_one(spec)
        hit_s = time.perf_counter() - start
        return miss_s, n_hit_lookups / hit_s


# --------------------------------------------------------------------------- #
# Flashvisor benchmarks                                                        #
# --------------------------------------------------------------------------- #
SECTION_BYTES = 1024 * 1024


def flashvisor_map_requests(n_sections: int) -> float:
    """Map ``n_sections`` 1 MB sections for read and as many for write on
    a bare accelerator; returns map requests."""
    from repro.core.accelerator import FlashAbacusAccelerator
    from repro.core.kernel import build_kernel

    accelerator = FlashAbacusAccelerator()
    # No workload runs, so nothing needs Storengine's background loop.
    accelerator.storengine.stop()
    env, flashvisor = accelerator.env, accelerator.flashvisor
    kernel = build_kernel("map", 1e6, SECTION_BYTES, SECTION_BYTES, 1, 0, 1)
    words = SECTION_BYTES // flashvisor.word_bytes

    def driver():
        for i in range(n_sections):
            yield from flashvisor.map_for_read(kernel, (i % 64) * words,
                                               SECTION_BYTES)
            yield from flashvisor.map_for_write(kernel,
                                                (64 + i % 64) * words,
                                                SECTION_BYTES)

    env.process(driver())
    env.run()
    served = flashvisor.stats.read_requests + flashvisor.stats.write_requests
    if served != 2 * n_sections:
        raise RuntimeError(f"flashvisor bench served {served} of "
                           f"{2 * n_sections} map requests")
    return float(served)


def range_lock_acquires(n_acquires: int) -> float:
    """Acquire and release a read range beside eight held write ranges;
    returns acquires."""
    from repro.core.range_lock import READ, WRITE, RangeLock

    lock = RangeLock()
    for owner in range(8):
        lock.acquire(owner * 64, owner * 64 + 15, WRITE, owner)
    try_acquire, release = lock.try_acquire, lock.release
    for i in range(n_acquires):
        start = (i % 8) * 64 + 16
        if try_acquire(start, start + 15, READ, 100) is not None:
            raise RuntimeError("range-lock bench hit a conflict")
        release(start, start + 15, 100)
    return float(n_acquires)


def bandwidth_pipe_transfers(n_transfers: int) -> float:
    """Eight processes move 4 KB blocks back to back over one DDR3L-rate
    pipe, so nearly every transfer queues; returns transfers."""
    from repro.sim import BandwidthPipe, Environment

    clients = 8
    env = Environment()
    pipe = BandwidthPipe(env, 6.4e9, 50e-9, name="bench")
    per_client = n_transfers // clients

    def client(env):
        for _ in range(per_client):
            yield from pipe.transfer(4096)

    for _ in range(clients):
        env.process(client(env))
    env.run()
    moved = pipe.bytes_moved // 4096
    if moved != per_client * clients:
        raise RuntimeError(f"pipe bench moved {moved} of "
                           f"{per_client * clients} transfers")
    return float(moved)


# --------------------------------------------------------------------------- #
# Execution chain and FTL benchmarks                                           #
# --------------------------------------------------------------------------- #
def chain_bench_kernels(n_kernels: int) -> list:
    """``n_kernels`` three-microblock kernels over four apps (built once:
    a chain reads its kernels and never changes them)."""
    from repro.core.kernel import build_kernel

    return [build_kernel(f"k{i}", 1e6, 4096, 4096, 3, 1, 4, app_id=i % 4)
            for i in range(n_kernels)]


def execution_chain_oldest_ready(kernels: list) -> float:
    """IntraO3's pick loop on a bare chain of ``kernels`` (eight offloaded
    per instant): each screen is taken by ``oldest_ready`` and run to
    done, with eight screens in flight; returns picks."""
    from collections import deque

    from repro.core.execution_chain import MultiAppExecutionChain

    chain = MultiAppExecutionChain()
    for i, kernel in enumerate(kernels):
        chain.add_kernel(kernel, now=float(i // 8))
    in_flight = deque()
    picks = 0
    while True:
        picked = chain.oldest_ready()
        if picked is None or len(in_flight) == 8:
            if not in_flight:
                break
            kernel_chain, screen = in_flight.popleft()
            chain.mark_done(kernel_chain, screen, 0.0)
            continue
        kernel_chain, _node, screen = picked
        screen.claimed = True
        chain.mark_running(screen, 0, 0.0)
        in_flight.append((kernel_chain, screen))
        picks += 1
    if not chain.complete:
        raise RuntimeError("chain bench left kernels incomplete")
    return float(picks)


def ftl_write_gc_groups(n_writes: int) -> float:
    """Overwrite a quarter of a miniature backbone one page group at a
    time while Storengine collects garbage behind it; returns page groups
    written by the writer (GC migrations come on top)."""
    from dataclasses import replace

    from repro.core.accelerator import FlashAbacusAccelerator
    from repro.core.storengine import Storengine
    from repro.hw.spec import FlashSpec, prototype_spec

    flash = FlashSpec(channels=2, packages_per_channel=1, dies_per_package=1,
                      planes_per_die=2, page_bytes=4096, pages_per_block=8,
                      blocks_per_die=16, page_read_latency_s=10e-6,
                      page_program_latency_s=100e-6,
                      block_erase_latency_s=200e-6,
                      channel_bus_bandwidth=400 * 1024 * 1024,
                      overprovision=0.2)
    accelerator = FlashAbacusAccelerator(
        spec=replace(prototype_spec(), flash=flash))
    accelerator.storengine.stop()
    env, flashvisor = accelerator.env, accelerator.flashvisor
    storengine = Storengine(env, accelerator.cluster.storengine_lwp,
                            flashvisor, accelerator.backbone,
                            accelerator.energy, poll_interval_s=1e-4,
                            journal_interval_s=1e3)
    geometry = accelerator.backbone.geometry
    group_bytes = geometry.page_group_bytes
    words = group_bytes // flashvisor.word_bytes
    span = max(1, geometry.page_groups_total // 4)

    def writer():
        for i in range(n_writes):
            flashvisor.translate_write((i % span) * words, group_bytes)
            yield env.timeout(2e-4)
        storengine.stop()

    done = env.process(writer())
    env.run_until(lambda: done.triggered)
    if not done.ok:
        raise done.value
    if storengine.stats.gc_invocations == 0:
        raise RuntimeError("FTL bench never collected garbage")
    return float(n_writes)


# --------------------------------------------------------------------------- #
# Harness                                                                      #
# --------------------------------------------------------------------------- #
def build_report(quick: bool = False, repeats: int = 5) -> PerfReport:
    """Run every microbenchmark and assemble the :class:`PerfReport`."""
    scale = 0.25 if quick else 1.0
    n_procs = 100
    events_per_proc = max(200, int(2000 * scale))
    pairs, rounds = 50, max(200, int(2000 * scale))
    serving_s = max(2.0, 5.0 * scale)
    fleet_s = max(2.0, 8.0 * scale)
    ipc_completions = 720  # one 2s epoch of the fleet scenario at 360 rps
    ipc_roundtrips = max(500, int(5000 * scale))
    reservoir_n = max(50_000, int(400_000 * scale))
    frontend_n = max(5_000, int(20_000 * scale))
    hit_lookups = max(200, int(1000 * scale))
    map_sections = max(500, int(4000 * scale))
    lock_acquires = max(10_000, int(50_000 * scale))
    pipe_transfers = max(20_000, int(100_000 * scale))
    chain_kernels = max(500, int(2000 * scale))
    ftl_writes = max(2000, int(8000 * scale))

    seed_engine = load_seed_engine()
    import repro.sim.engine as current_engine

    report = PerfReport(config={
        "mode": "quick" if quick else "full",
        "repeats": repeats,
        "engine_events": n_procs * events_per_proc,
        "seed_engine": SEED_ENGINE_PATH.name,
        # The parallel-speedup floor is host-aware (1.5x needs >= 2
        # cores); record the CPU count the snapshot was taken on so a
        # reader can tell which floor applied.
        "cpus": os.cpu_count() or 1,
    })

    # Engine A/B comparisons run interleaved and compare best rates so
    # a host-load spike cannot land on one side and skew the recorded
    # speedup (see repro.perf.timers.measure_ab).
    print("• engine: timeout-driven event loop "
          f"({n_procs} procs x {events_per_proc} events)")
    current, seed = measure_ab(
        "engine_events_per_sec",
        lambda: engine_timeout_events(current_engine, n_procs,
                                      events_per_proc),
        "engine_events_per_sec_seed",
        lambda: engine_timeout_events(seed_engine, n_procs,
                                      events_per_proc),
        repeats=repeats)
    report.add(PerfMetric("engine_events_per_sec", current.best_rate,
                          "events/s", baseline=seed.best_rate))

    print(f"• engine: event ping-pong ({pairs} pairs x {rounds} rounds)")
    current_pp, seed_pp = measure_ab(
        "engine_pingpong_events_per_sec",
        lambda: engine_pingpong_events(current_engine, pairs, rounds),
        "engine_pingpong_events_per_sec_seed",
        lambda: engine_pingpong_events(seed_engine, pairs, rounds),
        repeats=repeats)
    report.add(PerfMetric("engine_pingpong_events_per_sec",
                          current_pp.best_rate,
                          "events/s", baseline=seed_pp.best_rate))

    print("• engine: timeout-driven run_until with watchdog "
          f"({n_procs} procs x {events_per_proc} events)")
    until = measure("engine_run_until_events_per_sec",
                    lambda: engine_run_until_events(n_procs,
                                                    events_per_proc),
                    repeats=repeats)
    report.add(PerfMetric("engine_run_until_events_per_sec",
                          until.best_rate, "events/s"))

    print(f"• serving: observability on vs off (240 rps x {serving_s:g}s)")
    # Interleaved A/B so the recorded ratio is the tracing + metrics-bus
    # overhead factor (1.0 = free; the disabled path is checked for
    # byte-identical reports by the test suite, this pair tracks the
    # *enabled* cost).
    obs_on, obs_off = measure_ab(
        "serving_obs_requests_per_sec",
        lambda: serving_obs_run(240.0, serving_s),
        "serving_obs_requests_per_sec_plain",
        lambda: serving_run(240.0, serving_s),
        repeats=2, warmup=0)
    report.add(PerfMetric("serving_obs_requests_per_sec",
                          obs_on.best_rate, "requests/s",
                          baseline=obs_off.best_rate))

    print(f"• cluster: {FLEET_SHARDS}-shard parallel vs serial "
          f"(360 rps x {fleet_s:g}s)")
    # Interleaved A/B on the same fleet, like the engine pair: the
    # baseline is the serial session measured in the same run on the
    # same host, so the recorded ratio is the parallel speedup
    # ``--check`` enforces.
    fleet_par, fleet_serial = measure_ab(
        "cluster_parallel_requests_per_sec",
        lambda: fleet_parallel_run(360.0, fleet_s),
        "cluster_parallel_requests_per_sec_serial",
        lambda: fleet_serial_run(360.0, fleet_s),
        repeats=2, warmup=0)
    report.add(PerfMetric("cluster_parallel_requests_per_sec",
                          fleet_par.best_rate, "requests/s",
                          baseline=fleet_serial.best_rate))

    print(f"• cluster: epoch-boundary IPC codec ({ipc_completions} "
          f"completions x {ipc_roundtrips} round-trips)")
    packed_bytes, naive_bytes, codec_rate = parallel_ipc_stats(
        ipc_completions, ipc_roundtrips)
    report.add(PerfMetric("parallel_ipc_bytes_per_epoch",
                          float(packed_bytes), "bytes",
                          higher_is_better=False,
                          baseline=float(naive_bytes)))
    report.add(PerfMetric("parallel_ipc_roundtrips_per_sec", codec_rate,
                          "roundtrips/s"))

    print(f"• orchestrator: cache miss + {hit_lookups} hit lookups")
    miss_s, hits_per_s = orchestrator_cache(hit_lookups)
    report.add(PerfMetric("orchestrator_cache_miss_s", miss_s, "s",
                          higher_is_better=False))
    report.add(PerfMetric("orchestrator_cache_hits_per_sec", hits_per_s,
                          "lookups/s"))

    print(f"• stats: reservoir ingestion ({reservoir_n} samples)")
    reservoir = measure("reservoir_observes_per_sec",
                        lambda: reservoir_observes(reservoir_n),
                        repeats=repeats)
    report.add(PerfMetric("reservoir_observes_per_sec", reservoir.rate,
                          "samples/s"))

    print(f"• serving: 64-tenant frontend dispatch ({frontend_n} requests)")
    frontend = measure("frontend_dispatches_per_sec",
                       lambda: frontend_dispatches(64, frontend_n),
                       repeats=max(2, repeats - 2), warmup=0)
    report.add(PerfMetric("frontend_dispatches_per_sec", frontend.rate,
                          "requests/s"))

    print(f"• flashvisor: map 1 MB sections ({map_sections} reads + "
          f"{map_sections} writes)")
    mapping = measure("flashvisor_map_requests_per_sec",
                      lambda: flashvisor_map_requests(map_sections),
                      repeats=repeats)
    report.add(PerfMetric("flashvisor_map_requests_per_sec", mapping.rate,
                          "requests/s"))

    print(f"• range lock: acquire/release ({lock_acquires} pairs)")
    locking = measure("range_lock_acquires_per_sec",
                      lambda: range_lock_acquires(lock_acquires),
                      repeats=repeats)
    report.add(PerfMetric("range_lock_acquires_per_sec", locking.rate,
                          "acquires/s"))

    print(f"• sim: contended bandwidth pipe ({pipe_transfers} transfers)")
    piping = measure("bandwidth_pipe_transfers_per_sec",
                     lambda: bandwidth_pipe_transfers(pipe_transfers),
                     repeats=repeats)
    report.add(PerfMetric("bandwidth_pipe_transfers_per_sec", piping.rate,
                          "transfers/s"))

    print(f"• execution chain: oldest-ready picks ({chain_kernels} kernels)")
    kernels = chain_bench_kernels(chain_kernels)
    picking = measure("execution_chain_oldest_ready_per_sec",
                      lambda: execution_chain_oldest_ready(kernels),
                      repeats=repeats)
    report.add(PerfMetric("execution_chain_oldest_ready_per_sec",
                          picking.rate, "picks/s"))

    print(f"• ftl: overwrites with background GC ({ftl_writes} groups)")
    ftl = measure("ftl_write_gc_groups_per_sec",
                  lambda: ftl_write_gc_groups(ftl_writes),
                  repeats=repeats)
    report.add(PerfMetric("ftl_write_gc_groups_per_sec", ftl.rate,
                          "groups/s"))
    return report


def format_table(report: PerfReport) -> str:
    """Human-readable summary (also used by the CI job summary)."""
    lines = ["| metric | value | unit | baseline | speedup |",
             "|---|---:|---|---:|---:|"]
    for name, metric in sorted(report.metrics.items()):
        baseline = f"{metric.baseline:,.0f}" if metric.baseline else "—"
        ratio = f"{metric.ratio:.2f}x" if metric.ratio else "—"
        lines.append(f"| `{name}` | {metric.value:,.2f} | {metric.unit} "
                     f"| {baseline} | {ratio} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI smoke)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per microbenchmark")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write BENCH_PERF.json "
                             "(default: repo root)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless the engine beats the "
                             "seed baseline (2x full / 1.5x quick) and the "
                             "parallel "
                             "cluster runner beats serial (host-aware "
                             "1.5x/1.1x full, 1.0x quick)")
    args = parser.parse_args(argv)

    report = build_report(quick=args.quick, repeats=args.repeats)
    path = report.save(args.output)
    print()
    print(format_table(report))
    print(f"\nwrote {path}")

    if args.check:
        thresholds = QUICK_CHECK_THRESHOLDS if args.quick \
            else FULL_CHECK_THRESHOLDS
        violations = check_thresholds(report, thresholds)
        if violations:
            for violation in violations:
                print(f"THRESHOLD VIOLATION: {violation}", file=sys.stderr)
            return 1
        for threshold in thresholds:
            entry = report.get(threshold.metric)
            assert entry is not None and entry.ratio is not None
            print(f"{threshold.metric}: {entry.ratio:.2f}x "
                  f"(>= {threshold.min_ratio:.2f}x OK)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
