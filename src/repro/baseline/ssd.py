"""External NVMe SSD model used by the conventional (SIMD) baseline.

An Intel 750-class device: high sequential bandwidth, sub-millisecond
latency, but reached only through the host storage stack and a PCIe link,
and drawing an order of magnitude more power than the flash backbone's
raw channels.
"""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Environment
from ..sim.resources import Resource
from ..hw.power import STORAGE_ACCESS, EnergyAccountant
from ..hw.spec import SSDSpec


class NVMeSSD:
    """Device-level timing and energy for the external SSD."""

    def __init__(self, env: Environment, spec: SSDSpec,
                 energy: Optional[EnergyAccountant] = None,
                 name: str = "nvme_ssd"):
        self.env = env
        self.spec = spec
        self.energy = energy
        self.name = name
        self._device = Resource(env, capacity=1, name=name)
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_requests = 0
        self.write_requests = 0

    # -- timing -----------------------------------------------------------
    def read_time(self, num_bytes: int) -> float:
        return self.spec.read_latency_s + num_bytes / self.spec.read_bandwidth

    def write_time(self, num_bytes: int) -> float:
        return self.spec.write_latency_s + num_bytes / self.spec.write_bandwidth

    # -- timed operations -----------------------------------------------------
    def read(self, num_bytes: int):
        """Process generator: device-level read of ``num_bytes``."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        start = self.env.now
        with self._device.request() as req:
            yield req
            yield self.env.timeout(self.read_time(num_bytes))
        self.bytes_read += num_bytes
        self.read_requests += 1
        self._charge(start)
        return self.env.now - start

    def write(self, num_bytes: int):
        """Process generator: device-level write of ``num_bytes``."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        start = self.env.now
        with self._device.request() as req:
            yield req
            yield self.env.timeout(self.write_time(num_bytes))
        self.bytes_written += num_bytes
        self.write_requests += 1
        self._charge(start)
        return self.env.now - start

    def _charge(self, start: float) -> None:
        if self.energy is not None:
            self.energy.charge_power(self.name, STORAGE_ACCESS,
                                     self.spec.active_power_w,
                                     self.env.now - start)
