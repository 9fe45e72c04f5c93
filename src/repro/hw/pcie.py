"""PCIe link between the host and the accelerator.

Used by the FlashAbacus offload path (kernel description tables are written
through a BAR window into DDR3L) and, far more heavily, by the SIMD
baseline which must stream all input/output data over this link.
"""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Environment
from ..sim.resources import BandwidthPipe
from .power import DATA_MOVEMENT, EnergyAccountant
from .spec import PCIeSpec


class PCIeLink:
    """A PCIe v2.0 x2 link with bandwidth, latency and link power."""

    def __init__(self, env: Environment, spec: PCIeSpec,
                 energy: Optional[EnergyAccountant] = None,
                 name: str = "pcie"):
        self.env = env
        self.spec = spec
        self.energy = energy
        self.name = name
        self.pipe = BandwidthPipe(env, spec.bandwidth, spec.latency_s,
                                  name=name)

    def transfer(self, num_bytes: int):
        """Process generator: DMA ``num_bytes`` across the link."""
        duration = yield from self.pipe.transfer(num_bytes)
        if self.energy is not None:
            self.energy.charge_power(self.name, DATA_MOVEMENT,
                                     self.spec.power_w, duration)

    def interrupt(self):
        """Process generator: deliver a doorbell/interrupt (latency only)."""
        yield self.env.timeout(self.spec.latency_s)
