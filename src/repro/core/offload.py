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

Only the sequence's latencies are simulated: nothing reads a boot
address register, so the model keeps none.
"""

from __future__ import annotations

from typing import List

from ..sim.engine import Environment
from ..hw.memory import DDR3L
from ..hw.pcie import PCIeLink
from .kernel import Kernel


class OffloadController:
    """Moves kernel description tables from the host into DDR3L over PCIe."""

    #: DDR3L region reserved as the PCIe BAR window for kernel images.
    BAR_REGION_BYTES = 64 * 1024 * 1024
    #: PSC latency to park the target LWP before its boot address
    #: register is programmed, and to wake it afterwards.
    SLEEP_LATENCY_S = 5e-6
    WAKE_LATENCY_S = 5e-6

    def __init__(self, env: Environment, pcie: PCIeLink, ddr: DDR3L):
        self.env = env
        self.pcie = pcie
        self.ddr = ddr
        ddr.allocate("pcie.bar_window", self.BAR_REGION_BYTES)

    def offload_kernel(self, kernel: Kernel):
        """Process generator: download one kernel and run the boot sequence."""
        image_bytes = kernel.descriptor.image_bytes
        if image_bytes > self.BAR_REGION_BYTES:
            raise ValueError(
                f"kernel image ({image_bytes} bytes) exceeds the BAR window")
        # 1. Host writes the kernel description table to the BAR (PCIe DMA
        #    into DDR3L).
        yield from self.pcie.transfer(image_bytes)
        yield from self.ddr.write(image_bytes)
        # 2. Host raises a PCIe interrupt which is forwarded to Flashvisor.
        yield from self.pcie.interrupt()
        # 3. Flashvisor parks the target LWP, programs its boot address
        #    register and wakes it back up: two PSC transitions.
        yield self.env.timeout(self.SLEEP_LATENCY_S)
        yield self.env.timeout(self.WAKE_LATENCY_S)

    def offload_batch(self, kernels: List[Kernel]):
        """Process generator: offload several kernels back to back."""
        for kernel in kernels:
            yield from self.offload_kernel(kernel)
