"""Host storage stack and accelerator runtime of the baseline (Figure 1b).

The conventional heterogeneous system funnels every byte through two
discrete software stacks: the storage stack (I/O runtime, file system,
block/HBA driver, flash firmware) and the accelerator stack (runtime
library + device driver).  Each file read therefore costs

* per-request system call, file-system and driver latency on the host CPU,
* a copy from the OS-kernel buffer to the user buffer in host DRAM,
* a second copy from the user buffer to the accelerator runtime's pinned
  buffer before the DMA,

and the inverse path on writes.  These are exactly the overheads the paper
blames for 49% of execution time and 85% of system energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.engine import Environment
from ..hw.power import DATA_MOVEMENT, STORAGE_ACCESS, EnergyAccountant
from ..hw.spec import HostSpec


#: Size of one I/O request issued by the I/O runtime (a typical readahead /
#: direct-I/O chunk).
IO_REQUEST_BYTES = 128 * 1024


@dataclass
class StackStats:
    """Counters for the host-side software activity."""

    io_requests: int = 0
    copied_bytes: int = 0


class HostStorageStack:
    """Timed model of the host's file-system + I/O runtime + driver path."""

    def __init__(self, env: Environment, spec: HostSpec,
                 energy: Optional[EnergyAccountant] = None):
        self.env = env
        self.spec = spec
        self.energy = energy
        self.stats = StackStats()

    # -- helpers ----------------------------------------------------------
    def _requests_for(self, num_bytes: int) -> int:
        return max(1, -(-num_bytes // IO_REQUEST_BYTES))

    def stack_time(self, num_bytes: int) -> float:
        """CPU time spent in the storage stack for ``num_bytes`` of I/O."""
        requests = self._requests_for(num_bytes)
        per_request = (self.spec.syscall_latency_s
                       + self.spec.filesystem_latency_s
                       + self.spec.driver_latency_s)
        return requests * per_request

    def copy_time(self, num_bytes: int) -> float:
        """Host DRAM time for the user/kernel and runtime copies."""
        return self.spec.copies_per_io * num_bytes / self.spec.dram_bandwidth

    # -- timed operations -----------------------------------------------------
    def file_io(self, num_bytes: int, is_write: bool = False):
        """Process generator: storage-stack work for one file read/write.

        Covers the software path only (the SSD device time is modeled by
        :class:`~repro.baseline.ssd.NVMeSSD`); charges host CPU energy to
        the ``storage_access`` bucket and the DRAM copies to
        ``data_movement``.
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        requests = self._requests_for(num_bytes)
        stack_time = self.stack_time(num_bytes)
        copy_time = self.copy_time(num_bytes)
        # Nothing observes the instant the copies begin, so the software
        # path and the copies are one wait (summed left to right).
        env = self.env
        yield env.timeout_at(env.now + stack_time + copy_time)
        self.stats.io_requests += requests
        self.stats.copied_bytes += self.spec.copies_per_io * num_bytes
        if self.energy is not None:
            self.energy.charge_power("host_cpu.storage_stack", STORAGE_ACCESS,
                                     self.spec.cpu_active_power_w, stack_time)
            self.energy.charge_power("host_dram.copies", DATA_MOVEMENT,
                                     self.spec.cpu_active_power_w
                                     + self.spec.dram_power_w, copy_time)
        return stack_time + copy_time

    def accelerator_runtime(self, num_bytes: int):
        """Process generator: accelerator-runtime copy + driver submission."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        copy_time = num_bytes / self.spec.dram_bandwidth
        driver_time = self.spec.driver_latency_s + self.spec.syscall_latency_s
        yield self.env.timeout(copy_time + driver_time)
        self.stats.copied_bytes += num_bytes
        if self.energy is not None:
            self.energy.charge_power("host_cpu.accel_runtime", DATA_MOVEMENT,
                                     self.spec.cpu_active_power_w
                                     + self.spec.dram_power_w,
                                     copy_time + driver_time)
        return copy_time + driver_time
