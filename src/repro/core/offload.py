"""Host-side offload path (Section 4, "Offload" / "Execution").

The host writes each kernel description table through a PCIe BAR window
that the PCIe controller maps onto DDR3L, then raises an interrupt.  The
interrupt is forwarded to Flashvisor, which puts the target LWP to sleep
through the power/sleep controller (PSC), programs its boot address
register with the DDR3L location of the downloaded kernel, triggers an
inter-process interrupt and wakes the LWP back up.  After this revocation
sequence the LWP starts fetching and executing the kernel, and Flashvisor
is free to decide execution order — which is exactly what the schedulers
in :mod:`repro.core.schedulers` do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..sim.engine import Environment
from ..hw.memory import DDR3L
from ..hw.pcie import PCIeLink
from ..hw.power import EnergyAccountant
from .kernel import Kernel


@dataclass
class BootRecord:
    """Per-kernel record of the offload sequence, for tests and tracing."""

    kernel: Kernel
    bar_address: int
    downloaded_at: float
    interrupt_at: float
    ready_at: float


class PowerSleepController:
    """The PSC used to park and wake LWPs around boot-register updates."""

    SLEEP_LATENCY_S = 5e-6
    WAKE_LATENCY_S = 5e-6

    def __init__(self, env: Environment):
        self.env = env
        self.sleep_transitions = 0
        self.wake_transitions = 0

    def sleep(self):
        """Process generator: put an LWP into sleep mode."""
        yield self.env.timeout(self.SLEEP_LATENCY_S)
        self.sleep_transitions += 1

    def wake(self):
        """Process generator: pull an LWP out of sleep mode."""
        yield self.env.timeout(self.WAKE_LATENCY_S)
        self.wake_transitions += 1


class OffloadController:
    """Moves kernel description tables from the host into DDR3L over PCIe."""

    #: DDR3L region reserved as the PCIe BAR window for kernel images.
    BAR_REGION_BYTES = 64 * 1024 * 1024

    def __init__(self, env: Environment, pcie: PCIeLink, ddr: DDR3L,
                 psc: Optional[PowerSleepController] = None,
                 energy: Optional[EnergyAccountant] = None):
        self.env = env
        self.pcie = pcie
        self.ddr = ddr
        self.psc = psc if psc is not None else PowerSleepController(env)
        self.energy = energy
        self.kernels_offloaded = 0
        self.boot_address_registers: Dict[int, int] = {}
        self._next_bar_offset = 0
        ddr.allocate("pcie.bar_window", self.BAR_REGION_BYTES)

    def offload_kernel(self, kernel: Kernel):
        """Process generator: download one kernel and run the boot sequence.

        Returns the :class:`BootRecord` describing the timing of each step.
        """
        image_bytes = kernel.descriptor.image_bytes
        if image_bytes > self.BAR_REGION_BYTES:
            raise ValueError(
                f"kernel image ({image_bytes} bytes) exceeds the BAR window")
        bar_address = self._next_bar_offset
        self._next_bar_offset = (self._next_bar_offset + image_bytes) \
            % self.BAR_REGION_BYTES

        # 1. Host writes the kernel description table to the BAR (PCIe DMA
        #    into DDR3L).
        yield from self.pcie.transfer(image_bytes)
        yield from self.ddr.write(image_bytes)
        downloaded_at = self.env.now

        # 2. Host raises a PCIe interrupt which is forwarded to Flashvisor.
        yield from self.pcie.interrupt()
        interrupt_at = self.env.now

        # 3. Flashvisor parks the target LWP, programs its boot address
        #    register and wakes it back up.
        yield from self.psc.sleep()
        self.boot_address_registers[kernel.kernel_id] = bar_address
        yield from self.psc.wake()
        ready_at = self.env.now

        record = BootRecord(kernel=kernel, bar_address=bar_address,
                            downloaded_at=downloaded_at,
                            interrupt_at=interrupt_at, ready_at=ready_at)
        self.kernels_offloaded += 1
        return record

    def offload_batch(self, kernels: List[Kernel]):
        """Process generator: offload several kernels back to back."""
        records = []
        for kernel in kernels:
            record = yield from self.offload_kernel(kernel)
            records.append(record)
        return records
