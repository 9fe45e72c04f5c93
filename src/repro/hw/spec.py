"""Hardware specifications of the FlashAbacus prototype and the baseline host.

The numbers reproduce Table 1 of the paper ("Hardware specification of our
baseline") plus the quantities quoted in the prose of Sections 2.2 and 5
(page latencies, host CPU/DRAM, the Intel NVMe 750 SSD used by the SIMD
baseline).  Everything is expressed in SI base units: seconds, bytes,
bytes/second, watts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Dict

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

US = 1e-6
MS = 1e-3


@dataclass(frozen=True)
class LWPSpec:
    """One TI-style VLIW lightweight processor (Table 1, "LWP" row)."""

    count: int = 8
    frequency_hz: float = 1.0e9
    power_per_core_w: float = 0.8
    functional_units: int = 8
    multiply_units: int = 2
    general_units: int = 4
    load_store_units: int = 2
    l1_cache_bytes: int = 64 * KB
    l2_cache_bytes: int = 512 * KB
    # Effective sustained operations per cycle for the descriptor-level
    # workloads we run; a VLIW with 8 FUs rarely keeps them all busy.
    effective_ipc: float = 4.0


@dataclass(frozen=True)
class MemorySpec:
    """DDR3L working memory and the SRAM scratchpad (Table 1)."""

    ddr_capacity_bytes: int = 1 * GB
    ddr_bandwidth: float = 6.4 * GB
    ddr_latency_s: float = 60e-9
    ddr_power_w: float = 0.7
    scratchpad_capacity_bytes: int = 4 * MB
    scratchpad_bandwidth: float = 16 * GB
    scratchpad_latency_s: float = 10e-9
    scratchpad_banks: int = 8


@dataclass(frozen=True)
class InterconnectSpec:
    """Two-tier partial crossbar plus message-queue hardware (Table 1)."""

    tier1_bandwidth: float = 16 * GB
    tier1_latency_s: float = 20e-9
    tier2_bandwidth: float = 5.2 * GB
    tier2_latency_s: float = 40e-9
    message_queue_latency_s: float = 0.5e-6
    message_queue_depth: int = 64


@dataclass(frozen=True)
class PCIeSpec:
    """PCIe v2.0 x2 link between the host and the accelerator (Table 1)."""

    bandwidth: float = 1 * GB
    latency_s: float = 1e-6
    power_w: float = 0.17


@dataclass(frozen=True)
class FlashSpec:
    """Flash backbone: 4 channels x 4 TLC packages x 2 dies (Section 2.2)."""

    channels: int = 4
    packages_per_channel: int = 4
    dies_per_package: int = 2
    planes_per_die: int = 2
    page_bytes: int = 8 * KB
    pages_per_block: int = 256
    blocks_per_die: int = 512
    page_read_latency_s: float = 81 * US
    page_program_latency_s: float = 2.6 * MS
    block_erase_latency_s: float = 3.5 * MS
    # NV-DDR2 bus: ~800 MB/s per channel gives the 3.2 GB/s estimate in
    # Table 1 for the whole backbone.
    channel_bus_bandwidth: float = 800 * MB
    power_w: float = 11.0
    # Background write-buffer flushes keep only a few dies programming at a
    # time, so they draw a fraction of the fully-active backbone power.
    program_power_w: float = 4.0
    # Over-provisioning fraction reserved for garbage collection.
    overprovision: float = 0.07

    @property
    def total_dies(self) -> int:
        return self.channels * self.packages_per_channel * self.dies_per_package

    @property
    def capacity_bytes(self) -> int:
        return (self.total_dies * self.blocks_per_die * self.pages_per_block
                * self.page_bytes)


@dataclass(frozen=True)
class HostSpec:
    """Host used by the baseline (Xeon E5-2620v3 + 32 GB DDR4 + NVMe 750)."""

    cpu_cores: int = 6
    cpu_frequency_hz: float = 2.4e9
    cpu_active_power_w: float = 85.0
    cpu_idle_power_w: float = 15.0
    dram_capacity_bytes: int = 32 * GB
    dram_bandwidth: float = 25.6 * GB
    dram_power_w: float = 6.0
    # Storage-stack costs per I/O request (file system + block layer + user
    # to kernel copies + mode switches); calibrated so data-intensive
    # PolyBench kernels spend most of their time in the storage path, as the
    # paper's Figure 3d reports.
    syscall_latency_s: float = 6e-6
    filesystem_latency_s: float = 14e-6
    driver_latency_s: float = 5e-6
    copies_per_io: int = 2


@dataclass(frozen=True)
class SSDSpec:
    """External NVMe SSD of the baseline (Intel 750-class)."""

    capacity_bytes: int = 400 * GB
    read_bandwidth: float = 2.2 * GB
    write_bandwidth: float = 0.9 * GB
    read_latency_s: float = 120 * US
    write_latency_s: float = 30 * US
    active_power_w: float = 22.0
    idle_power_w: float = 4.0


@dataclass(frozen=True)
class HardwareSpec:
    """Complete platform description used to instantiate simulations."""

    lwp: LWPSpec = field(default_factory=LWPSpec)
    memory: MemorySpec = field(default_factory=MemorySpec)
    interconnect: InterconnectSpec = field(default_factory=InterconnectSpec)
    pcie: PCIeSpec = field(default_factory=PCIeSpec)
    flash: FlashSpec = field(default_factory=FlashSpec)
    host: HostSpec = field(default_factory=HostSpec)
    ssd: SSDSpec = field(default_factory=SSDSpec)

    def as_dict(self) -> Dict:
        return asdict(self)

    def table1_rows(self) -> list:
        """Render the Table 1 rows the paper reports for our baseline."""
        flash_gb = self.flash.capacity_bytes / GB
        return [
            ("LWP", f"{self.lwp.count} processors",
             f"{self.lwp.frequency_hz / 1e9:.0f}GHz",
             f"{self.lwp.power_per_core_w}W/core", "16GB/s"),
            ("L1/L2 cache",
             f"{self.lwp.l1_cache_bytes // KB}KB/{self.lwp.l2_cache_bytes // KB}KB",
             "500MHz", "N/A", "16GB/s"),
            ("Scratchpad",
             f"{self.memory.scratchpad_capacity_bytes // MB}MB",
             "500MHz", "N/A", "16GB/s"),
            ("Memory", f"DDR3L, {self.memory.ddr_capacity_bytes // GB}GB",
             "800MHz", f"{self.memory.ddr_power_w}W",
             f"{self.memory.ddr_bandwidth / GB:.1f}GB/s"),
            ("SSD", f"{self.flash.total_dies} dies, {flash_gb:.0f}GB",
             "200MHz", f"{self.flash.power_w}W",
             f"{self.flash.channels * self.flash.channel_bus_bandwidth / GB:.1f}GB/s"),
            ("PCIe", "v2.0, 2 lanes", "5GHz", f"{self.pcie.power_w}W",
             f"{self.pcie.bandwidth / GB:.0f}GB/s"),
            ("Tier-1 crossbar", "256 lanes", "500MHz", "N/A",
             f"{self.interconnect.tier1_bandwidth / GB:.0f}GB/s"),
            ("Tier-2 crossbar", "128 lanes", "333MHz", "N/A",
             f"{self.interconnect.tier2_bandwidth / GB:.1f}GB/s"),
        ]


DEFAULT_SPEC = HardwareSpec()


def prototype_spec() -> HardwareSpec:
    """The default FlashAbacus prototype configuration (Table 1)."""
    return HardwareSpec()
