"""FlashAbacus accelerator: platform assembly and multi-kernel execution.

This module wires the hardware substrate (LWPs, DDR3L, scratchpad,
crossbars, PCIe, flash backbone) together with the self-governing software
components (Flashvisor, Storengine, the offload controller and a kernel
scheduler) and drives multi-kernel execution:

* the host offloads kernel description tables over PCIe;
* the chosen scheduler hands work items to worker LWPs;
* each screen maps its data section through Flashvisor (which reads the
  input from flash into DDR3L), computes on its LWP, and buffers its
  output in DDR3L for Storengine to flush in the background.

The :class:`ExecutionReport` produced by :meth:`FlashAbacusAccelerator.run_workload`
contains everything the evaluation section needs: makespan, per-kernel
latencies, throughput, utilizations, energy breakdown, and the Fig. 15
time series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..sim.engine import Environment, Event
from ..sim.stats import SummaryStats, TimeSeries
from ..hw.lwp import LWP
from ..hw.power import (
    COMPUTATION,
    STORAGE_ACCESS,
    EnergyBreakdown,
)
from ..hw.spec import HardwareSpec
from ..platform.builder import HardwareSubstrate, resolve_substrate
from ..platform.config import FLASHABACUS_SCHEDULERS, PlatformConfig
from ..policy import build_policy
from .execution_chain import MicroblockNode, ScreenNode
from .flashvisor import Flashvisor
from .kernel import Kernel
from .offload import OffloadController, PowerSleepController
from .schedulers import Scheduler, WorkItem
from .storengine import Storengine


class FlashAddressSpace:
    """Assigns backbone address ranges to kernel data sections.

    Kernels of the same application share their *input* region (the input
    file is written to the backbone once), while every kernel instance gets
    a private *output* region — mirroring how the prototype stages input
    files and collects per-instance results.
    """

    def __init__(self, capacity_bytes: int, alignment: int):
        self.capacity_bytes = capacity_bytes
        self.alignment = alignment
        self._cursor = 0
        self._input_regions: Dict[str, int] = {}

    def _bump(self, num_bytes: int) -> int:
        aligned = -(-num_bytes // self.alignment) * self.alignment
        if self._cursor + aligned > self.capacity_bytes:
            # Wrap around: the logical space is reused (old mappings are
            # simply overwritten), which is how a bounded backbone handles
            # workloads whose aggregate footprint exceeds its capacity.
            self._cursor = 0
        base = self._cursor
        self._cursor += aligned
        return base

    def input_region(self, app_name: str, num_bytes: int) -> int:
        if app_name not in self._input_regions:
            self._input_regions[app_name] = self._bump(num_bytes)
        return self._input_regions[app_name]

    def output_region(self, num_bytes: int) -> int:
        return self._bump(num_bytes)


@dataclass
class ExecutionReport:
    """Results of running one workload on one accelerator configuration."""

    system: str
    workload: str
    makespan_s: float
    kernel_latencies: List[float]
    completion_times: List[float]
    bytes_processed: int
    energy: EnergyBreakdown
    worker_utilization: float
    per_lwp_utilization: List[float]
    mean_active_fus: float
    fu_series: Optional[TimeSeries] = None
    power_series: Optional[TimeSeries] = None
    scheduler_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_bytes_per_s(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.bytes_processed / self.makespan_s

    @property
    def throughput_mb_per_s(self) -> float:
        return self.throughput_bytes_per_s / (1024 * 1024)

    def latency_summary(self) -> SummaryStats:
        return SummaryStats(self.kernel_latencies)

    @property
    def energy_joules(self) -> float:
        return self.energy.total

    # ------------------------------------------------------------------ #
    # Serialization (used by the experiment orchestrator's result cache)   #
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "system": self.system,
            "workload": self.workload,
            "makespan_s": self.makespan_s,
            "kernel_latencies": list(self.kernel_latencies),
            "completion_times": list(self.completion_times),
            "bytes_processed": self.bytes_processed,
            "energy": self.energy.as_dict(),
            "worker_utilization": self.worker_utilization,
            "per_lwp_utilization": list(self.per_lwp_utilization),
            "mean_active_fus": self.mean_active_fus,
            "fu_series": (self.fu_series.to_dict()
                          if self.fu_series is not None else None),
            "power_series": (self.power_series.to_dict()
                             if self.power_series is not None else None),
            "scheduler_stats": dict(self.scheduler_stats),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExecutionReport":
        return cls(
            system=data["system"],
            workload=data["workload"],
            makespan_s=data["makespan_s"],
            kernel_latencies=list(data["kernel_latencies"]),
            completion_times=list(data["completion_times"]),
            bytes_processed=data["bytes_processed"],
            energy=EnergyBreakdown.from_dict(data["energy"]),
            worker_utilization=data["worker_utilization"],
            per_lwp_utilization=list(data["per_lwp_utilization"]),
            mean_active_fus=data["mean_active_fus"],
            fu_series=(TimeSeries.from_dict(data["fu_series"])
                       if data.get("fu_series") is not None else None),
            power_series=(TimeSeries.from_dict(data["power_series"])
                          if data.get("power_series") is not None else None),
            scheduler_stats=dict(data.get("scheduler_stats", {})),
        )


class FlashAbacusAccelerator:
    """The self-governing flash-based accelerator.

    The hardware substrate comes from :class:`repro.platform.PlatformBuilder`
    (pass ``substrate`` to share a pre-built one; a prebuilt substrate's
    config is authoritative and keyword arguments that conflict with it
    are errors); this class adds the self-governing software on top:
    Flashvisor, Storengine, the offload controller, the flash address
    space, and a kernel scheduler.
    """

    def __init__(self, env: Optional[Environment] = None,
                 spec: Optional[HardwareSpec] = None,
                 scheduler: Optional[str] = None,
                 track_power_series: bool = False,
                 config: Optional[PlatformConfig] = None,
                 substrate: Optional[HardwareSubstrate] = None):
        if scheduler is not None and scheduler not in FLASHABACUS_SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; choose from "
                f"{FLASHABACUS_SCHEDULERS}")
        substrate = resolve_substrate(
            baseline=False, env=env, spec=spec,
            track_power_series=track_power_series,
            system=scheduler, config=config, substrate=substrate)
        config = substrate.config
        self.config = config
        self.substrate = substrate
        self.env = substrate.env
        self.spec = substrate.spec
        self.energy = substrate.energy
        self.power_monitor = substrate.power_monitor
        self.cluster = substrate.cluster
        self.ddr = substrate.ddr
        self.scratchpad = substrate.scratchpad
        self.interconnect = substrate.interconnect
        self.pcie = substrate.pcie
        self.backbone = substrate.backbone
        self.flashvisor = Flashvisor(
            self.env, self.cluster.flashvisor_lwp, self.backbone, self.ddr,
            self.scratchpad, self.interconnect.new_queue("flashvisor"),
            self.energy)
        self.storengine = Storengine(
            self.env, self.cluster.storengine_lwp, self.flashvisor,
            self.backbone, self.energy)
        self.offloader = OffloadController(
            self.env, self.pcie, self.ddr, PowerSleepController(self.env),
            self.energy)
        self.address_space = FlashAddressSpace(
            self.backbone.geometry.capacity_bytes,
            self.backbone.geometry.page_group_bytes)
        self.scheduler: Scheduler = build_policy(
            "scheduler", config.system,
            num_workers=len(self.cluster.workers))
        self._kernel_regions: Dict[int, Dict[str, int]] = {}
        self._wake: Event = self.env.event()
        self.screens_executed = 0
        # Online-serving support (repro.serve): while serving, workers park
        # on the wake event instead of exiting when the scheduler is
        # momentarily drained, and every kernel completion is announced
        # through ``on_kernel_complete(kernel, now)`` (the serving backend).
        self._serving = False
        self.on_kernel_complete: Optional[
            Callable[[Kernel, float], None]] = None
        # Observability (repro.obs): shard index stamped on screen span
        # events when a tracer is attached to the environment; 0 for
        # single-device runs.
        self.trace_device = 0

    # ------------------------------------------------------------------ #
    # Workload execution                                                  #
    # ------------------------------------------------------------------ #
    def run_workload(self, kernels: Sequence[Kernel],
                     workload_name: str = "workload") -> ExecutionReport:
        """Offload ``kernels``, run them to completion, return the report."""
        if not kernels:
            raise ValueError("run_workload needs at least one kernel")
        env = self.env
        env.spawn(self._host_offload(list(kernels)))
        for idx, lwp in enumerate(self.cluster.workers):
            env.spawn(self._worker_loop(idx, lwp))
        # Run until every offloaded kernel has completed (a crashed
        # worker re-raises out of the loop).  Storengine is a perpetual
        # background process, so draining the whole event queue would
        # never terminate.
        scheduler = self.scheduler
        if env.run_until(lambda: scheduler.done) != "done":
            raise RuntimeError(
                "simulation stalled before all kernels completed")
        makespan = max((c for c in
                        self.scheduler.chain.completion_times()), default=self.env.now)
        # Flush the buffered flash writes so storage energy covers every
        # byte the workload produced, then stop the background services.
        self.storengine.stop()
        drain = env.process(self.storengine.drain())
        env.run_until(lambda: drain.triggered)
        if not drain.ok:
            raise drain.value
        # Management cores draw power for the whole run (the paper notes
        # InterSt "must keep Flashvisor and Storengine always busy"); their
        # explicitly-billed busy periods are subtracted to avoid double
        # charging.
        for mgmt in (self.cluster.flashvisor_lwp, self.cluster.storengine_lwp):
            if mgmt is not None:
                idle_time = max(0.0, makespan - mgmt.busy_time())
                self.energy.charge_power(
                    f"lwp{mgmt.lwp_id}.always_on", STORAGE_ACCESS,
                    self.spec.lwp.power_per_core_w, idle_time)
        bytes_processed = sum(k.input_bytes + k.output_bytes for k in kernels)
        report = ExecutionReport(
            system=self.scheduler.name,
            workload=workload_name,
            makespan_s=makespan,
            kernel_latencies=self.scheduler.chain.kernel_latencies(),
            completion_times=self.scheduler.chain.completion_times(),
            bytes_processed=bytes_processed,
            energy=self.energy.breakdown,
            worker_utilization=self.cluster.worker_utilization(makespan),
            per_lwp_utilization=[w.utilization(makespan)
                                 for w in self.cluster.workers],
            mean_active_fus=self.cluster.activity.mean(),
            fu_series=self.cluster.activity.series,
            power_series=(self.power_monitor.series
                          if self.power_monitor is not None else None),
            scheduler_stats=self._scheduler_stats(),
        )
        return report

    def _scheduler_stats(self) -> Dict[str, float]:
        stats: Dict[str, float] = {
            "screens_executed": float(self.screens_executed),
            "lock_conflicts": float(self.flashvisor.stats.lock_conflicts),
            "flash_reads_bytes": float(self.backbone.bytes_read()),
            "flash_writes_bytes": float(self.backbone.bytes_written()),
        }
        for attr in ("dispatches", "borrowed_dispatches"):
            if hasattr(self.scheduler, attr):
                stats[attr] = float(getattr(self.scheduler, attr))
        return stats

    # ------------------------------------------------------------------ #
    # Online serving (incremental submission, used by repro.serve)        #
    # ------------------------------------------------------------------ #
    @property
    def serving(self) -> bool:
        return self._serving

    @property
    def worker_count(self) -> int:
        return len(self.cluster.workers)

    def begin_service(self) -> None:
        """Start the worker loops for open-ended request service.

        Unlike :meth:`run_workload`, no batch is offloaded up front:
        kernels arrive one by one through :meth:`submit_kernel` and the
        workers park on the wake event whenever the scheduler is drained.
        The caller owns the event loop (see
        :class:`repro.serve.session.ServingSession`) and must finish with
        :meth:`end_service`.
        """
        if self._serving:
            raise RuntimeError("service already started")
        self._serving = True
        for idx, lwp in enumerate(self.cluster.workers):
            self.env.spawn(self._worker_loop(idx, lwp))

    def submit_kernel(self, kernel: Kernel):
        """Process generator: offload one kernel at the current sim time.

        Runs the per-kernel offload sequence (PCIe download, interrupt,
        boot-register update) and hands the kernel to the scheduler —
        the incremental counterpart of the batch prologue in
        :meth:`run_workload`.
        """
        yield from self.offloader.offload_kernel(kernel)
        input_base = self.address_space.input_region(
            f"{kernel.name}:{kernel.app_id}", kernel.input_bytes)
        output_base = self.address_space.output_region(
            max(kernel.output_bytes, 1))
        self._kernel_regions[kernel.kernel_id] = {
            "input": input_base, "output": output_base}
        self.scheduler.offload([kernel], now=self.env.now)
        self._wake_workers()

    def end_service(self) -> None:
        """Let the worker loops drain and exit once all work completes."""
        self._serving = False
        self._wake_workers()

    # ------------------------------------------------------------------ #
    # Internal processes                                                  #
    # ------------------------------------------------------------------ #
    def _host_offload(self, kernels: List[Kernel]):
        yield from self.offloader.offload_batch(kernels)
        for kernel in kernels:
            input_base = self.address_space.input_region(
                f"{kernel.name}:{kernel.app_id}", kernel.input_bytes)
            output_base = self.address_space.output_region(
                max(kernel.output_bytes, 1))
            self._kernel_regions[kernel.kernel_id] = {
                "input": input_base, "output": output_base}
        self.scheduler.offload(kernels, now=self.env.now)
        self._wake_workers()

    def _worker_loop(self, worker_index: int, lwp: LWP):
        while True:
            item = self.scheduler.next_work(worker_index)
            if item is None:
                if self.scheduler.done and not self._serving:
                    return
                yield self._wake
                continue
            if self.scheduler.dispatch_overhead_s > 0:
                yield self.env.timeout(self.scheduler.dispatch_overhead_s)
            for node, screen_node in item.units:
                yield from self._execute_screen(lwp, item, node, screen_node)
            self.scheduler.notify_complete(worker_index, item, self.env.now)
            self._wake_workers()

    def _wake_workers(self) -> None:
        # Only parked workers need waking: with no waiter the wake event
        # would be a no-op heap push/pop, so it is kept for the next
        # park instead (the remaining events keep their order).
        wake = self._wake
        if wake.callbacks:
            self._wake = self.env.event()
            wake.succeed()

    def _execute_screen(self, lwp: LWP, item: WorkItem, node: MicroblockNode,
                        screen_node: ScreenNode):
        chain = item.chain
        kernel = chain.kernel
        screen = screen_node.screen
        regions = self._kernel_regions[kernel.kernel_id]
        tracer = self.env.tracer
        screen_begin = self.env.now if tracer is not None else 0.0
        self.scheduler.chain.mark_running(screen_node, lwp.lwp_id,
                                          self.env.now)
        # 1. Bring the screen's slice of the data section into DDR3L.
        if node.microblock.reads_flash and screen.input_bytes > 0:
            word_addr = regions["input"] // self.flashvisor.word_bytes
            yield from self.flashvisor.map_for_read(kernel, word_addr,
                                                    screen.input_bytes)
        # 2. Compute on this LWP.
        if screen.instructions > 0:
            yield from lwp.compute(screen.instructions,
                                   load_store_fraction=screen.ld_st_ratio,
                                   bucket=COMPUTATION)
        # 3. Buffer the output in DDR3L; flash programs happen in the
        #    background through Storengine.
        if node.microblock.writes_flash and screen.output_bytes > 0:
            word_addr = regions["output"] // self.flashvisor.word_bytes
            yield from self.flashvisor.map_for_write(kernel, word_addr,
                                                     screen.output_bytes)
        self.scheduler.chain.mark_done(chain, screen_node, self.env.now)
        lwp.screens_executed += 1
        self.screens_executed += 1
        if tracer is not None:
            # Screen spans key on kernel.instance — the request id in
            # serving runs — never kernel_id, whose process-global
            # counter would break same-seed trace determinism.
            tracer.span(self.env.now, "screen", kernel.instance,
                        kernel.name, self.trace_device,
                        (lwp.lwp_id, screen_begin))
        if chain.complete and self.on_kernel_complete is not None:
            # True exactly once, after the kernel's final screen.
            self.on_kernel_complete(kernel, self.env.now)
        self._wake_workers()

    # ------------------------------------------------------------------ #
    # Teardown helpers                                                     #
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Stop background services (used by long-lived interactive users)."""
        self.storengine.stop()


def run_flashabacus(kernels: Sequence[Kernel],
                    scheduler: Optional[str] = None,
                    workload_name: str = "workload",
                    spec: Optional[HardwareSpec] = None,
                    track_power_series: bool = False,
                    config: Optional[PlatformConfig] = None) -> ExecutionReport:
    """Convenience wrapper: build a fresh accelerator and run one workload."""
    accelerator = FlashAbacusAccelerator(spec=spec, scheduler=scheduler,
                                         track_power_series=track_power_series,
                                         config=config)
    report = accelerator.run_workload(kernels, workload_name)
    accelerator.shutdown()
    return report
