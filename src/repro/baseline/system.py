"""The conventional heterogeneous system the paper calls ``SIMD``.

The same low-power multicore accelerator, but:

* data lives on an external NVMe SSD behind the host storage stack;
* kernels are executed one at a time with OpenMP-style SIMD parallelism —
  the parallel parts of a kernel spread over all eight LWPs, the serial
  microblocks run on one LWP, and nothing overlaps across kernels;
* every input byte travels SSD -> host DRAM (stack copies) -> PCIe ->
  accelerator DRAM before the kernel may start processing it, and results
  travel the inverse path (Figure 3a's prologue/body/epilogue loop);
* the accelerator's internal DRAM is small, so large inputs are processed
  in buffer-sized iterations, serializing I/O and computation.

The per-kernel time/energy decomposition (accelerator vs. SSD vs. host
storage stack) produced here also drives the motivation study (Fig. 3d/3e).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..sim.engine import Environment
from ..hw.power import (
    COMPUTATION,
    DATA_MOVEMENT,
    EnergyBreakdown,
)
from ..platform.builder import resolve_substrate
from ..platform.config import PlatformConfig
from ..core.accelerator import ExecutionReport
from ..core.kernel import Kernel, Microblock


@dataclass
class KernelTimeBreakdown:
    """Per-kernel decomposition used by the Fig. 3d motivation study."""

    kernel_name: str
    accelerator_s: float = 0.0
    ssd_s: float = 0.0
    host_stack_s: float = 0.0


class BaselineSystem:
    """Host + NVMe SSD + low-power accelerator over PCIe (``SIMD``)."""

    #: Portion of accelerator DRAM usable as an input/output staging buffer.
    STAGING_BUFFER_BYTES = 256 * 1024 * 1024

    def __init__(self, env: Optional[Environment] = None,
                 config: Optional[PlatformConfig] = None):
        substrate = resolve_substrate(baseline=True, env=env, config=config)
        config = substrate.config
        self.config = config
        self.env = substrate.env
        self.spec = substrate.spec
        self.energy = substrate.energy
        self.power_monitor = substrate.power_monitor
        self.cluster = substrate.cluster
        self.ddr = substrate.ddr
        self.pcie = substrate.pcie
        self.ssd = substrate.ssd
        self.host = substrate.host
        self.stack = substrate.stack
        self.breakdowns: List[KernelTimeBreakdown] = []
        self.completion_times: List[float] = []
        self.kernel_latencies: List[float] = []

    # ------------------------------------------------------------------ #
    # Workload execution                                                  #
    # ------------------------------------------------------------------ #
    def run_workload(self, kernels: Sequence[Kernel],
                     workload_name: str = "workload") -> ExecutionReport:
        """Run ``kernels`` serially through the conventional path."""
        if not kernels:
            raise ValueError("run_workload needs at least one kernel")
        self.env.spawn(self._driver(list(kernels)))
        self.env.run()
        makespan = self.env.now
        # Host + SSD idle draw while the accelerator computes: the host
        # exists only to move data in this system.
        accel_time = sum(b.accelerator_s for b in self.breakdowns)
        self.host.charge_idle(accel_time, bucket=DATA_MOVEMENT)
        bytes_processed = sum(k.input_bytes + k.output_bytes for k in kernels)
        report = ExecutionReport(
            system="SIMD",
            workload=workload_name,
            makespan_s=makespan,
            kernel_latencies=list(self.kernel_latencies),
            completion_times=list(self.completion_times),
            bytes_processed=bytes_processed,
            energy=self.energy.breakdown,
            worker_utilization=self.cluster.worker_utilization(makespan),
            per_lwp_utilization=[w.utilization(makespan)
                                 for w in self.cluster.workers],
            mean_active_fus=self.cluster.activity.mean(),
            fu_series=self.cluster.activity.series,
            power_series=(self.power_monitor.series
                          if self.power_monitor is not None else None),
            scheduler_stats={
                "ssd_reads": float(self.ssd.read_requests),
                "ssd_writes": float(self.ssd.write_requests),
                "io_requests": float(self.stack.stats.io_requests),
                "copied_bytes": float(self.stack.stats.copied_bytes),
            },
        )
        return report

    # ------------------------------------------------------------------ #
    # Online serving (incremental execution, used by repro.serve)         #
    # ------------------------------------------------------------------ #
    def serve_kernel(self, kernel: Kernel):
        """Process generator: run one request through the conventional path.

        The serving layer dispatches requests one at a time (the
        conventional system executes kernels strictly serially), so this
        is simply one iteration of :meth:`_driver` without the batch
        bookkeeping; end-to-end request latency is measured by the caller
        from arrival to completion.
        """
        breakdown = KernelTimeBreakdown(kernel_name=kernel.name)
        yield from self._run_kernel(kernel, breakdown)
        self.breakdowns.append(breakdown)
        self.completion_times.append(self.env.now)

    # ------------------------------------------------------------------ #
    # Internal processes                                                  #
    # ------------------------------------------------------------------ #
    def _driver(self, kernels: List[Kernel]):
        # Latency is measured as turnaround from workload submission, the
        # same reference the FlashAbacus engine uses (kernels offloaded in
        # one batch), so Fig. 11's normalization compares like with like.
        submitted_at = self.env.now
        for kernel in kernels:
            breakdown = KernelTimeBreakdown(kernel_name=kernel.name)
            yield from self._run_kernel(kernel, breakdown)
            self.breakdowns.append(breakdown)
            self.completion_times.append(self.env.now)
            self.kernel_latencies.append(self.env.now - submitted_at)

    def _run_kernel(self, kernel: Kernel, breakdown: KernelTimeBreakdown):
        for microblock in kernel.microblocks:
            if microblock.reads_flash and microblock.input_bytes > 0:
                yield from self._staged_io_and_compute(microblock, breakdown)
            else:
                yield from self._compute_microblock(
                    microblock, microblock.instructions, breakdown)
            if microblock.writes_flash and microblock.output_bytes > 0:
                yield from self._write_back(microblock.output_bytes, breakdown)

    def _staged_io_and_compute(self, microblock: Microblock,
                               breakdown: KernelTimeBreakdown):
        """Figure 3a's body loop: read a buffer, ship it, compute, repeat."""
        remaining = microblock.input_bytes
        total = microblock.input_bytes
        while remaining > 0:
            chunk = min(remaining, self.STAGING_BUFFER_BYTES)
            remaining -= chunk
            yield from self._load_chunk(chunk, breakdown)
            chunk_instructions = microblock.instructions * (chunk / total)
            yield from self._compute_microblock(microblock, chunk_instructions,
                                                breakdown)

    def _set_io_draw(self, active: bool) -> None:
        """Track host + SSD power while the data path is active (Fig. 15b)."""
        if self.power_monitor is None:
            return
        if active:
            self.power_monitor.set_draw(
                "host", self.spec.host.cpu_active_power_w
                + self.spec.host.dram_power_w)
            self.power_monitor.set_draw("ssd", self.spec.ssd.active_power_w)
        else:
            self.power_monitor.set_draw(
                "host", self.spec.host.cpu_idle_power_w
                + self.spec.host.dram_power_w)
            self.power_monitor.set_draw("ssd", self.spec.ssd.idle_power_w)

    def _load_chunk(self, num_bytes: int, breakdown: KernelTimeBreakdown):
        self._set_io_draw(True)
        # SSD device read.
        start = self.env.now
        yield from self.ssd.read(num_bytes)
        breakdown.ssd_s += self.env.now - start
        # Storage stack: syscalls, file system, copies to the user buffer
        # and again into the accelerator runtime's buffer.
        start = self.env.now
        yield from self.stack.file_io(num_bytes, is_write=False)
        yield from self.stack.accelerator_runtime(num_bytes)
        breakdown.host_stack_s += self.env.now - start
        # PCIe DMA into the accelerator's DRAM.
        start = self.env.now
        yield from self.pcie.transfer(num_bytes)
        yield from self.ddr.write(num_bytes)
        breakdown.host_stack_s += self.env.now - start
        self._set_io_draw(False)

    def _write_back(self, num_bytes: int, breakdown: KernelTimeBreakdown):
        remaining = num_bytes
        self._set_io_draw(True)
        while remaining > 0:
            chunk = min(remaining, self.STAGING_BUFFER_BYTES)
            remaining -= chunk
            start = self.env.now
            yield from self.ddr.read(chunk)
            yield from self.pcie.transfer(chunk)
            yield from self.stack.accelerator_runtime(chunk)
            yield from self.stack.file_io(chunk, is_write=True)
            breakdown.host_stack_s += self.env.now - start
            start = self.env.now
            yield from self.ssd.write(chunk)
            breakdown.ssd_s += self.env.now - start
        self._set_io_draw(False)

    def _compute_microblock(self, microblock: Microblock,
                            instructions: float,
                            breakdown: KernelTimeBreakdown):
        """OpenMP-style execution: all LWPs for parallel blocks, one for serial."""
        if instructions <= 0:
            return
        start = self.env.now
        workers = self.cluster.workers
        ld_st = microblock.screens[0].ld_st_ratio if microblock.screens else 0.3
        if microblock.serial:
            yield from workers[0].compute(instructions, ld_st, bucket=COMPUTATION)
        else:
            # Equal shares on identical cores end at the same instant, so
            # one timeout stands for the whole fan-out.  The busy-period
            # and energy calls keep worker order: energy sums and the
            # fu_series samples depend on it.
            share = instructions / len(workers)
            est = workers[0].estimate(share, ld_st)
            fus = est.functional_units_used
            for worker in workers:
                worker.begin_busy(fus, start)
            yield self.env.timeout(est.seconds)
            end = self.env.now
            for worker in workers:
                worker.end_busy(fus, end)
                worker.charge(COMPUTATION, est.seconds)
        breakdown.accelerator_s += self.env.now - start

    # ------------------------------------------------------------------ #
    # Motivation-study helpers                                            #
    # ------------------------------------------------------------------ #
    def energy_breakdown(self) -> EnergyBreakdown:
        return self.energy.breakdown

    def time_breakdowns(self) -> List[KernelTimeBreakdown]:
        return list(self.breakdowns)
