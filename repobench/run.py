#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics.

Run one workload from the root of a checkout::

    python3 repobench/run.py --workload serve-knee --seed 11 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload, each cold in its own process, and prints them one after the
other.  See ``repobench/README.md`` for what each metric means.

A run fails (exit status 1) when a unit raises or breaks the correctness
gate: request conservation, a complete batch sweep, and identical
simulated results whenever a sub-seed is repeated.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("serve-knee", "fleet-failover", "batch-mixes")

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "served_ratio": "ratio",
    "goodput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "energy_j": "J",
    "bandwidth_mb_s": "MB/s",
}

#: Per-layer metrics: name -> unit.  Self times are host seconds; the
#: rest are counts and shares, simulated unless noted in the README.
PER_LAYER = {
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.us_per_event": "us",
    "sim.stats.self_s": "s",
    "core.accelerator.self_s": "s",
    "core.range_lock.self_s": "s",
    "core.range_lock.acquires": "count",
    "core.execution_chain.self_s": "s",
    "core.execution_chain.ready_screens_calls": "count",
    "core.schedulers.self_s": "s",
    "core.flashvisor.self_s": "s",
    "core.flashvisor.calls": "count",
    "core.storengine.self_s": "s",
    "hw.self_s": "s",
    "flash.self_s": "s",
    "flash.page_group_ops": "count",
    "flash.bulk_ops": "count",
    "baseline.self_s": "s",
    "workloads.self_s": "s",
    "serve.session.self_s": "s",
    "serve.session.polls": "count",
    "serve.slo.self_s": "s",
    "serve.frontend.self_s": "s",
    "cluster.coordinator_busy_s": "s",
    "cluster.coordinator_wait_s": "s",
    "cluster.epochs": "count",
    "cluster.ipc_bytes": "bytes",
    "cluster.codec_s": "s",
    "cluster.placement.decisions": "count",
    "eval.orchestrator.pool_launches": "count",
    "eval.orchestrator.task_s": "s",
    "eval.orchestrator.idle_share": "ratio",
    "platform.build_s": "s",
    "core.screens_executed": "count",
    "core.borrowed_dispatches": "count",
    "core.lock_conflicts": "count",
    "core.lwp_utilization": "ratio",
    "flash.read_bytes": "bytes",
    "flash.write_bytes": "bytes",
    "flash.channel_utilization": "ratio",
    "flash.read_lane_utilization": "ratio",
    "core.storengine.flushed_bytes": "bytes",
    "core.storengine.gc_invocations": "count",
    "serve.queue_share": "ratio",
    "serve.service_share": "ratio",
    "cluster.reroutes": "count",
    "cluster.evicted": "count",
    "cluster.routed_max_over_min": "ratio",
    "baseline.io_requests": "count",
    "baseline.copied_bytes": "bytes",
    "bandwidth_gain_vs_simd": "x",
    "energy_saving_vs_simd": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_share": "ratio",
    "trace.unattributed_s": "s",
}

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = [name[:-len(".self_s")] for name in PER_LAYER
                    if name.endswith(".self_s")]

#: Cold-import samples per run; ``setup_s`` adds their median.
IMPORT_SAMPLES = 5

#: Upper bound on units in one run, whatever ``--seconds`` says.
MAX_UNITS = 60


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0   # ru_maxrss is in KiB on Linux


def import_seconds(modules) -> float:
    """Median cold import time of ``modules`` in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); "
            "[__import__(m) for m in sys.argv[2:]]; "
            "print(time.perf_counter() - start)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code, str(SRC),
                               *modules],
                              capture_output=True, text=True, check=True,
                              timeout=120)
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float],
                units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}})


def print_table(metrics: Dict[str, float], units: Dict[str, str]) -> None:
    for name, unit in units.items():
        print(f"  {name:<42} {metrics[name]:>18.6g} {unit}")


# --------------------------------------------------------------------- #
# Untraced run: end-to-end metrics                                       #
# --------------------------------------------------------------------- #
def prepare(workload):
    """Import the workload's modules and mark where set-up ends."""
    from bench_workloads import SetupClock

    for module in workload.imports:
        __import__(module)
    clock = SetupClock()
    workload.install_setup_marks(clock)
    return clock


def timed_run(workload, seed: int, seconds: float):
    """Units until ``seconds`` have passed.

    At least one pass over the sub-seeds plus one repeat; later units
    cycle through the sub-seeds again, each repeat checked for an
    identical simulated result.
    """
    import_s = import_seconds(workload.imports)
    clock = prepare(workload)
    seeds = workload.sub_seeds(seed)
    deadline = time.perf_counter() + seconds
    units, first, errors = [], {}, []
    while len(units) <= len(seeds) or (time.perf_counter() < deadline
                                       and len(units) < MAX_UNITS):
        sub = seeds[len(units) % len(seeds)]
        unit = workload.run_unit(sub, clock)
        units.append(unit)
        problems = list(unit.errors)
        if sub in first:
            if unit.fingerprint != first[sub].fingerprint:
                problems.append(f"seed {sub} repeated with a different "
                                f"simulated result")
            unit.reports = []   # only the first pass feeds the metrics
        else:
            first[sub] = unit
        print(f"unit {len(units)}: seed={sub} setup={unit.setup_s:.4f}s "
              f"wall={unit.wall_s:.4f}s execution={unit.execution}"
              + (f" ERRORS={problems}" if problems else ""), flush=True)
        errors.extend(problems)
        if problems:
            break
    metrics = workload.sim_metrics([first[s] for s in seeds if s in first])
    metrics.update({
        "wall_s": statistics.median(u.wall_s for u in units),
        "setup_s": import_s + statistics.median(u.setup_s for u in units),
        "peak_rss_mb": peak_rss_mb(),
    })
    print(f"import_s={import_s:.4f} units={len(units)} "
          f"distinct_seeds={len(first)} "
          f"latency_samples={workload.samples(list(first.values()))}")
    return units, metrics, errors


# --------------------------------------------------------------------- #
# Traced run: per-layer metrics                                          #
# --------------------------------------------------------------------- #
def traced_run(workload, seed: int):
    """One untraced unit, then the same unit traced; per-layer metrics.

    The traced unit must reproduce the untraced unit's simulated result
    exactly: the wrappers time the simulator, they must not change it.
    """
    import layers

    clock = prepare(workload)
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    start = time.perf_counter()
    base = workload.run_unit(seed, clock)
    base_total = time.perf_counter() - start

    rec = layers.Recorder()
    wrapped = layers.install(rec)
    spool = ROOT / ".repobench" / f"spool-{os.getpid()}"
    spool.mkdir(parents=True)
    try:
        rec.spool = spool
        rec.ipc = workload.counts_ipc
        rec.reset()
        start = time.perf_counter()
        traced = workload.run_unit(seed, clock)
        traced_total = time.perf_counter() - start
        rec.ipc = False
        rec.harvest()
        parent = rec.snapshot()
        totals = layers.merge_spool(spool)
    finally:
        shutil.rmtree(spool.parent, ignore_errors=True)
    layers.add_totals(totals, parent)
    errors = base.errors + traced.errors
    if traced.fingerprint != base.fingerprint:
        errors.append("the traced run changed the simulated result")

    self_s, counters = totals["self_s"], totals["counters"]
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for name, value in counters.items():
        if name in metrics:
            metrics[name] = value
    for name, (total, count) in totals["means"].items():
        metrics[name] = total / count
    events = counters.get("sim.events", 0.0)
    metrics["sim.us_per_event"] = (1e6 * metrics["sim.self_s"] / events
                                   if events else 0.0)
    metrics["core.flashvisor.calls"] = totals["spans"].get(
        "core.flashvisor", 0)
    parent_self = parent["self_s"]
    metrics["cluster.coordinator_busy_s"] = sum(
        parent_self.get(layer, 0.0)
        for layer in ("cluster", "cluster.placement", "cluster.codec"))
    metrics["cluster.coordinator_wait_s"] = parent_self.get("cluster.wait",
                                                            0.0)
    metrics["cluster.codec_s"] = self_s.get("cluster.codec", 0.0)
    attributed = sum(value for layer, value in parent_self.items()
                     if layer != layers.ROOT)
    metrics["trace.wall_s"] = traced_total
    metrics["trace.overhead_share"] = traced_total / base_total - 1.0
    metrics["trace.unattributed_s"] = traced_total - attributed
    errors.extend(workload.layer_metrics(seed, traced, metrics))
    overhead_s = traced_total - base_total
    verdict = "within" if traced_total - attributed <= overhead_s \
        else "beyond"
    print(f"wrapped {wrapped} functions and methods; untraced unit "
          f"{base_total:.3f}s, traced unit {traced_total:.3f}s (overhead "
          f"{overhead_s:.3f}s); parent layer self times sum to "
          f"{attributed:.3f}s, {traced_total - attributed:.3f}s "
          f"unattributed ({verdict} the overhead)")
    print(f"execution: {traced.execution}")
    return [base, traced], metrics, errors


# --------------------------------------------------------------------- #
# Entry points                                                           #
# --------------------------------------------------------------------- #
def run_workload(args) -> int:
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    print(f"repobench {workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"nproc={os.cpu_count()} tiny={args.tiny} "
          f"cache_dir={os.environ.get('REPRO_CACHE_DIR') or 'none'}",
          flush=True)
    units_of = PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace:
            units, metrics, errors = traced_run(workload, args.seed)
        else:
            units, metrics, errors = timed_run(workload, args.seed,
                                               args.seconds)
    except Exception as error:  # a unit that raises is a failed run
        import traceback
        traceback.print_exc()
        print(f"FAILED: {type(error).__name__}: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    for line in workload.summary(units):
        print(line)
    print_table(metrics, units_of)
    failed = 1 if errors else 0
    for error in errors:
        print(f"GATE FAILED: {error}", file=sys.stderr)
    print(result_line(not errors, len(units), failed, metrics, units_of))
    return 1 if errors else 0


def run_all(args) -> int:
    """Every workload, each cold in its own interpreter."""
    status, merged, attempted, failed = 0, {}, 0, 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.tiny:
            command.append("--tiny")
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            status = 1
        attempted += result.get("attempted", 0)
        failed += result.get("failed", 1)
        for metric, entry in result.get("metrics", {}).items():
            merged[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": status == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure for at least this many host seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"repobench: no simulator source under {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
