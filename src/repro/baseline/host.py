"""Host CPU/DRAM model for the baseline heterogeneous system."""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Environment
from ..hw.power import DATA_MOVEMENT, EnergyAccountant
from ..hw.spec import HostSpec


class HostCPU:
    """The Xeon host orchestrating the baseline's data movement.

    The host is busy whenever it drives the storage stack, performs buffer
    copies, or manages accelerator DMA; it idles (at idle power) while the
    accelerator computes.  Idle energy is charged to data movement because
    the host exists in this system purely to shuttle data — the paper's
    energy breakdown does the same.
    """

    def __init__(self, env: Environment, spec: HostSpec,
                 energy: Optional[EnergyAccountant] = None):
        self.env = env
        self.spec = spec
        self.energy = energy

    def charge_idle(self, duration: float,
                    bucket: str = DATA_MOVEMENT) -> None:
        """Charge host idle power for a period it spends waiting."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        if self.energy is not None:
            self.energy.charge_power("host_cpu.idle", bucket,
                                     self.spec.cpu_idle_power_w, duration)
            self.energy.charge_power("host_dram.idle", bucket,
                                     self.spec.dram_power_w, duration)
