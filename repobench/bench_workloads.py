"""The benchmark's three workloads, their correctness gate and metrics.

Each workload runs in *units*.  A unit is one cold simulation run built
from one sub-seed: a fresh platform (``clear_template_cache()``), a fresh
orchestrator without a disk cache, arrivals generated before the run.
The sub-seeds of a run are derived from ``--seed``; the simulated
metrics come from the first pass over them, and every later unit
repeats one of them, so the same run also proves that a seed reproduces
its simulated results exactly.

* ``serve-knee``: one IntraO3 device, Poisson traffic at the 240 rps
  p99-SLO knee, ``input_scale=0.01``, two tenants, queue-depth
  admission.  Twelve sub-seeds of 10 simulated seconds each: at the knee
  one sub-seed's median latency varies by about a quarter from seed to
  seed, and the mean over twelve brings that below a tenth.
* ``fleet-failover``: four IntraO3 devices at 540 rps with
  ``least_outstanding`` placement; device 1 fails at 40 % of the run and
  recovers at 70 %, so the three survivors carry 180 rps each, three
  quarters of the single-device knee.  Runs on the epoch-parallel runner
  with the default ``ParallelConfig()`` (auto workers).  Eight
  sub-seeds.  One sub-seed's p99 varies from seed to seed by about 30 %
  at 720 rps (survivors at the knee), 20 % at 600 rps and 16 % at
  540 rps; at 480 rps the median latency is one kernel's unloaded
  service time, the same for every seed.
* ``batch-mixes``: the Fig. 10b/13 sweep, MX1-MX14 on all five systems
  with 4 instances per kernel (70 simulations) through a fresh
  orchestrator with one worker per CPU.  The sub-seed draws the data-set
  size: ``input_scale`` is 0.125 within +/-1 %.  The paper's ratios do
  not depend on the scale (the mean IntraO3/SIMD bandwidth gain reads
  1.7512 at 0.25 and 1.7514 at 0.5).

Host metrics (``wall_s``, ``setup_s``) are medians over a run's units.
Simulated metrics are means over the distinct sub-seeds.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

MIB = 1024 * 1024

#: The paper's headline results for IntraO3 against SIMD (abstract).
PAPER_BANDWIDTH_GAIN = 2.27
PAPER_ENERGY_SAVING = 0.784

BATCH_SYSTEMS = ("SIMD", "InterSt", "InterDy", "IntraIo", "IntraO3")


class SetupClock:
    """Marks where a unit's set-up ends: its first simulated event."""

    def __init__(self) -> None:
        self.start = 0.0
        self.end: Optional[float] = None

    def begin(self) -> None:
        self.start = time.perf_counter()
        self.end = None

    def mark(self) -> None:
        if self.end is None:
            self.end = time.perf_counter()


def mark(owner: Any, name: str, clock: SetupClock,
         after: bool = False) -> None:
    """Make ``owner.name`` mark ``clock`` when first entered (or, with
    ``after``, when it first returns)."""
    original = getattr(owner, name)

    @functools.wraps(original)
    def marked(*args, **kwargs):
        if not after:
            clock.mark()
        result = original(*args, **kwargs)
        clock.mark()
        return result

    setattr(owner, name, marked)


def digest(data: Any) -> str:
    """Stable fingerprint of a JSON-able simulated result."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Unit:
    """One cold simulation run of a workload."""

    seed: int
    setup_s: float
    wall_s: float
    reports: List[Dict[str, Any]]
    errors: List[str]
    execution: Dict[str, Any] = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        return digest(self.reports)


# --------------------------------------------------------------------- #
# Correctness gate                                                       #
# --------------------------------------------------------------------- #
def serving_errors(report: Dict[str, Any]) -> List[str]:
    """Conservation checks on a serving or cluster report dict."""
    errors = []
    offered, admitted = report["offered"], report["admitted"]
    rejected, completed = report["rejected"], report["completed"]
    if offered != admitted + rejected:
        errors.append(f"offered {offered} != admitted {admitted} "
                      f"+ rejected {rejected}")
    if admitted != completed:
        errors.append(f"admitted {admitted} != completed {completed} "
                      f"at drain")
    if not 0 <= report["slo_violations"] <= completed:
        errors.append(f"slo_violations {report['slo_violations']} outside "
                      f"[0, completed]")
    energy = report["energy_j"]
    if not (math.isfinite(energy) and energy > 0):
        errors.append(f"energy_j {energy} is not positive")
    devices = report.get("devices")
    if devices is not None:
        device_energy = sum(d["energy_j"] for d in devices)
        if not math.isclose(device_energy, energy, rel_tol=1e-9):
            errors.append(f"sum of device energy {device_energy} != fleet "
                          f"energy {energy}")
        device_completed = sum(d["completed"] for d in devices)
        if device_completed != completed:
            errors.append(f"sum of device completions {device_completed} "
                          f"!= fleet completions {completed}")
    return errors


def batch_errors(reports: List[Dict[str, Any]], expected: int,
                 kernels_per_mix: int) -> List[str]:
    """Every simulation of the sweep returned a complete report."""
    errors = []
    if len(reports) != expected:
        errors.append(f"{len(reports)} of {expected} simulations returned")
    for report in reports:
        label = f"{report['workload']} on {report['system']}"
        if len(report["kernel_latencies"]) != kernels_per_mix:
            errors.append(f"{label}: {len(report['kernel_latencies'])} of "
                          f"{kernels_per_mix} kernels completed")
        if not report["makespan_s"] > 0 or not report["bytes_processed"] > 0:
            errors.append(f"{label}: empty makespan or no bytes processed")
        if not report["energy"]["total"] > 0:
            errors.append(f"{label}: no energy charged")
    return errors


# --------------------------------------------------------------------- #
# Workloads                                                              #
# --------------------------------------------------------------------- #
class Workload:
    """Common base: sub-seeds, set-up marking and metric assembly."""

    name = ""
    #: Distinct sub-seeds whose results make the simulated metrics.
    sim_units = 1
    #: Modules the workload needs; their cold import time is set-up.
    imports: Tuple[str, ...] = ()
    #: Whether a traced run counts the parent's worker-pipe bytes.
    counts_ipc = False

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def sub_seeds(self, seed: int) -> List[int]:
        return [seed + 1000 * i for i in range(self.sim_units)]

    def install_setup_marks(self, clock: SetupClock) -> None:
        raise NotImplementedError

    def run_unit(self, seed: int, clock: SetupClock) -> Unit:
        raise NotImplementedError

    def sim_metrics(self, units: List[Unit]) -> Dict[str, float]:
        raise NotImplementedError

    def samples(self, units: List[Unit]) -> int:
        """Latency samples behind the percentiles of ``units``."""
        raise NotImplementedError

    def layer_metrics(self, seed: int, unit: Unit,
                      metrics: Dict[str, float]) -> List[str]:
        """Fill the per-layer numbers a traced ``unit`` carries in its
        reports; returns correctness errors."""
        return []

    def summary(self, units: List[Unit]) -> List[str]:
        """Extra lines printed after a run."""
        return []


class _Serving(Workload):
    """The two open-loop serving workloads."""

    offered_rps = 0.0

    @property
    def duration_s(self) -> float:
        return 0.5 if self.tiny else 10.0

    def scenario(self, seed: int):
        from repro.serve.session import ServingScenario
        return ServingScenario(process="poisson",
                               offered_rps=self.offered_rps,
                               duration_s=self.duration_s, seed=seed)

    @staticmethod
    def device_config():
        from repro.platform.config import PlatformConfig
        return PlatformConfig(input_scale=0.01)

    @staticmethod
    def flash_bytes(report: Dict[str, Any]) -> float:
        devices = report.get("devices") or [report]
        return sum(d["scheduler_stats"].get("flash_reads_bytes", 0.0)
                   + d["scheduler_stats"].get("flash_writes_bytes", 0.0)
                   for d in devices)

    def sim_metrics(self, units: List[Unit]) -> Dict[str, float]:
        reports = [unit.reports[0] for unit in units]
        offered = sum(r["offered"] for r in reports)
        good = sum(r["completed"] - r["slo_violations"] for r in reports)
        return {
            "served_ratio": good / offered,
            "goodput_rps": statistics.fmean(r["goodput_rps"]
                                            for r in reports),
            "latency_p50_ms": 1e3 * statistics.fmean(
                r["latency"]["p50_s"] for r in reports),
            "latency_p99_ms": 1e3 * statistics.fmean(
                r["latency"]["p99_s"] for r in reports),
            "energy_j": statistics.fmean(r["energy_j"] for r in reports),
            "bandwidth_mb_s": statistics.fmean(
                self.flash_bytes(r) / r["makespan_s"] / MIB
                for r in reports),
        }

    def samples(self, units: List[Unit]) -> int:
        return sum(unit.reports[0]["completed"] for unit in units)


class ServeKnee(_Serving):
    name = "serve-knee"
    sim_units = 12
    imports = ("repro.serve.session",)
    offered_rps = 240.0

    def install_setup_marks(self, clock: SetupClock) -> None:
        import repro.serve.session as session
        mark(session, "drive_until_settled", clock)

    def run_unit(self, seed: int, clock: SetupClock) -> Unit:
        from repro.platform.builder import clear_template_cache
        from repro.serve.session import ServingSession

        clear_template_cache()
        clock.begin()
        session = ServingSession(self.scenario(seed), self.device_config())
        report = session.run().to_dict()
        end = time.perf_counter()
        return Unit(seed=seed, setup_s=clock.end - clock.start,
                    wall_s=end - clock.end, reports=[report],
                    errors=serving_errors(report),
                    execution={"mode": "serial", "workers": 1})

    def layer_metrics(self, seed: int, unit: Unit,
                      metrics: Dict[str, float]) -> List[str]:
        """Queue/service shares of simulated latency, from a run of the
        same sub-seed with request-lifecycle tracing on."""
        from repro.eval.bottleneck import bottleneck_breakdown
        from repro.obs import ObsConfig
        from repro.serve.session import ServingSession

        session = ServingSession(self.scenario(seed), self.device_config(),
                                 obs=ObsConfig())
        report = session.run().to_dict()
        split = bottleneck_breakdown(session.tracer)["__all__"]
        metrics["serve.queue_share"] = split.share("queue")
        metrics["serve.service_share"] = split.share("service")
        return serving_errors(report)


class FleetFailover(_Serving):
    name = "fleet-failover"
    sim_units = 8
    imports = ("repro.cluster.parallel",)
    counts_ipc = True
    offered_rps = 540.0
    devices = 4

    def cluster(self):
        from repro.platform.cluster import ClusterConfig, FaultSpec
        duration = self.duration_s
        return ClusterConfig.homogeneous(
            self.devices, self.device_config(),
            placement="least_outstanding",
            faults=(FaultSpec(0.4 * duration, 1, "failed"),
                    FaultSpec(0.7 * duration, 1, "healthy")))

    def install_setup_marks(self, clock: SetupClock) -> None:
        from repro.cluster.parallel import ParallelClusterSession
        mark(ParallelClusterSession, "_drive", clock)

    def run_unit(self, seed: int, clock: SetupClock) -> Unit:
        from repro.cluster.parallel import (
            ParallelClusterSession,
            ParallelConfig,
        )
        from repro.platform.builder import clear_template_cache

        clear_template_cache()
        clock.begin()
        session = ParallelClusterSession(self.scenario(seed), self.cluster(),
                                         ParallelConfig())
        report = session.run().to_dict()
        end = time.perf_counter()
        return Unit(seed=seed, setup_s=clock.end - clock.start,
                    wall_s=end - clock.end, reports=[report],
                    errors=serving_errors(report),
                    execution=dict(session.execution_stats))

    def layer_metrics(self, seed: int, unit: Unit,
                      metrics: Dict[str, float]) -> List[str]:
        stats = unit.reports[0]["placement_stats"]
        routed = stats["routed"]
        metrics["cluster.epochs"] = unit.execution["epochs"]
        metrics["cluster.reroutes"] = stats["reroutes"]
        metrics["cluster.routed_max_over_min"] = (
            max(routed) / min(routed) if min(routed) else 0.0)
        return []


class BatchMixes(Workload):
    name = "batch-mixes"
    sim_units = 1
    imports = ("repro.eval.orchestrator", "repro.workloads.mixes")
    instances_per_kernel = 4
    kernels_per_mix = 24

    @property
    def mixes(self) -> List[str]:
        from repro.workloads.mixes import MIX_ORDER
        return list(MIX_ORDER[:2] if self.tiny else MIX_ORDER)

    def input_scale(self, seed: int) -> float:
        base = 0.01 if self.tiny else 0.125
        return base * (1.0 + 0.02 * (random.Random(seed).random() - 0.5))

    def install_setup_marks(self, clock: SetupClock) -> None:
        import repro.eval.orchestrator as orchestrator
        mark(orchestrator.ExperimentOrchestrator, "_ensure_pool", clock,
             after=True)
        # One worker (a 1-CPU host) takes the in-process path instead.
        mark(orchestrator, "_execute_spec", clock)

    def run_unit(self, seed: int, clock: SetupClock) -> Unit:
        from repro.eval.orchestrator import (
            ExperimentOrchestrator,
            ExperimentSpec,
            WorkloadSpec,
        )
        from repro.platform.builder import clear_template_cache
        from repro.platform.config import PlatformConfig

        clear_template_cache()
        clock.begin()
        scale = self.input_scale(seed)
        specs = [ExperimentSpec(
                     WorkloadSpec("heterogeneous", mix),
                     PlatformConfig(system=system, input_scale=scale,
                                    instances=self.instances_per_kernel))
                 for mix in self.mixes for system in BATCH_SYSTEMS]
        with ExperimentOrchestrator(cache_dir=None,
                                    workers=os.cpu_count() or 1) as orch:
            results = orch.run(specs)
            end = time.perf_counter()
            execution = {"mode": "pool" if orch.pool_launches else "serial",
                         "workers": orch.workers,
                         "pool_launches": orch.pool_launches,
                         "simulations_run": orch.simulations_run,
                         "cache_hits": orch.cache_stats["hits"]}
        reports = []
        for spec in specs:
            report = results[spec.key].to_dict()
            # Host-side series are not needed and dominate the size.
            report.pop("fu_series", None)
            report.pop("power_series", None)
            reports.append(report)
        errors = batch_errors(reports, len(specs), self.kernels_per_mix)
        if execution["cache_hits"]:
            errors.append("results were served from a cache")
        return Unit(seed=seed, setup_s=clock.end - clock.start,
                    wall_s=end - clock.end, reports=reports, errors=errors,
                    execution=execution)

    def by_system(self, unit: Unit, system: str) -> List[Dict[str, Any]]:
        return [r for r in unit.reports if r["system"] == system]

    def paper_ratios(self, unit: Unit) -> Dict[str, float]:
        """Mean IntraO3/SIMD bandwidth gain and energy saving over mixes."""
        o3 = {r["workload"]: r for r in self.by_system(unit, "IntraO3")}
        simd = {r["workload"]: r for r in self.by_system(unit, "SIMD")}

        def bandwidth(r):
            return r["bytes_processed"] / r["makespan_s"]

        return {
            "bandwidth_gain_vs_simd": statistics.fmean(
                bandwidth(o3[m]) / bandwidth(simd[m]) for m in o3),
            "energy_saving_vs_simd": statistics.fmean(
                1.0 - o3[m]["energy"]["total"] / simd[m]["energy"]["total"]
                for m in o3),
        }

    def sim_metrics(self, units: List[Unit]) -> Dict[str, float]:
        unit = units[0]
        o3 = self.by_system(unit, "IntraO3")
        latencies = [lat for r in o3 for lat in r["kernel_latencies"]]
        return {
            "served_ratio": len(unit.reports) / (
                len(self.mixes) * len(BATCH_SYSTEMS)),
            "goodput_rps": len(latencies) / sum(r["makespan_s"] for r in o3),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p99_ms": 1e3 * statistics.quantiles(
                latencies, n=100, method="inclusive")[98],
            "energy_j": sum(r["energy"]["total"] for r in o3),
            "bandwidth_mb_s": statistics.fmean(
                r["bytes_processed"] / r["makespan_s"] / MIB for r in o3),
        }

    def samples(self, units: List[Unit]) -> int:
        return len(self.by_system(units[0], "IntraO3")) * self.kernels_per_mix

    def layer_metrics(self, seed: int, unit: Unit,
                      metrics: Dict[str, float]) -> List[str]:
        metrics.update(self.paper_ratios(unit))
        workers = unit.execution["workers"]
        metrics["eval.orchestrator.pool_launches"] = \
            unit.execution["pool_launches"]
        capacity = workers * unit.wall_s
        metrics["eval.orchestrator.idle_share"] = max(
            0.0, 1.0 - metrics["eval.orchestrator.task_s"] / capacity)
        return []

    def summary(self, units: List[Unit]) -> List[str]:
        ratios = self.paper_ratios(units[0])
        lines = []
        for name, paper in (("bandwidth_gain_vs_simd", PAPER_BANDWIDTH_GAIN),
                            ("energy_saving_vs_simd", PAPER_ENERGY_SAVING)):
            value = ratios[name]
            lines.append(f"  {name} = {value:.4f} (paper {paper}, relative "
                         f"error {(value - paper) / paper:+.1%})")
        lines.append("  The model has no held-out reference data beyond "
                     "these two published ratios.")
        return lines


WORKLOADS = {cls.name: cls for cls in (ServeKnee, FleetFailover, BatchMixes)}
