"""On-accelerator memory models: DDR3L working memory and the scratchpad.

DDR3L holds the data sections of each kernel (flash-mapped regions) and
buffers flash writes; the scratchpad holds Flashvisor's mapping table and
the hardware-queue entries (Section 2.2).  Both are modeled as bandwidth
pipes with capacity tracking so that allocation pressure (the reason
low-power accelerators must split work into multiple kernels) is visible.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim.engine import Environment
from ..sim.resources import BandwidthPipe
from .power import EnergyAccountant, STORAGE_ACCESS, COMPUTATION
from .spec import MemorySpec


class CapacityError(MemoryError):
    """Raised when an allocation does not fit in the memory device."""


class MemoryDevice:
    """A byte-addressable memory with bandwidth, latency, and capacity."""

    def __init__(self, env: Environment, name: str, capacity_bytes: int,
                 bandwidth: float, latency_s: float,
                 power_w: float = 0.0,
                 energy: Optional[EnergyAccountant] = None,
                 energy_bucket: str = COMPUTATION):
        self.env = env
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.pipe = BandwidthPipe(env, bandwidth, latency_s, name=name)
        self.power_w = power_w
        self.energy = energy
        self.energy_bucket = energy_bucket
        self._allocations: Dict[str, int] = {}
        self.bytes_read = 0
        self.bytes_written = 0

    # -- capacity management -------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        return sum(self._allocations.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.allocated_bytes

    def allocate(self, tag: str, num_bytes: int) -> None:
        """Reserve ``num_bytes`` under ``tag``; raises if it does not fit."""
        if num_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        existing = self._allocations.get(tag, 0)
        if self.allocated_bytes - existing + num_bytes > self.capacity_bytes:
            raise CapacityError(
                f"{self.name}: cannot allocate {num_bytes} bytes for {tag!r}; "
                f"{self.free_bytes} free of {self.capacity_bytes}")
        self._allocations[tag] = existing + num_bytes

    # -- timed accesses -----------------------------------------------------
    def read(self, num_bytes: int):
        """Process generator: timed read of ``num_bytes``."""
        record = yield from self.pipe.transfer(num_bytes)
        self.bytes_read += num_bytes
        self._charge(record.duration)
        return record

    def write(self, num_bytes: int):
        """Process generator: timed write of ``num_bytes``."""
        record = yield from self.pipe.transfer(num_bytes)
        self.bytes_written += num_bytes
        self._charge(record.duration)
        return record

    def _charge(self, duration: float) -> None:
        if self.energy is not None and self.power_w > 0:
            self.energy.charge_power(self.name, self.energy_bucket,
                                     self.power_w, duration)


class DDR3L(MemoryDevice):
    """The 1 GB low-power DRAM that backs kernel data sections."""

    def __init__(self, env: Environment, spec: MemorySpec,
                 energy: Optional[EnergyAccountant] = None):
        super().__init__(env, "ddr3l", spec.ddr_capacity_bytes,
                         spec.ddr_bandwidth, spec.ddr_latency_s,
                         power_w=spec.ddr_power_w, energy=energy,
                         energy_bucket=COMPUTATION)


class Scratchpad(MemoryDevice):
    """The 4 MB SRAM scratchpad holding mapping tables and queue entries."""

    def __init__(self, env: Environment, spec: MemorySpec,
                 energy: Optional[EnergyAccountant] = None):
        super().__init__(env, "scratchpad", spec.scratchpad_capacity_bytes,
                         spec.scratchpad_bandwidth, spec.scratchpad_latency_s,
                         power_w=0.0, energy=energy,
                         energy_bucket=STORAGE_ACCESS)
        self.banks = spec.scratchpad_banks
