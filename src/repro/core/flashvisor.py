"""Flashvisor: the LWP that virtualizes the flash backbone (Section 4.3).

Flashvisor owns the page-group mapping table (kept in the scratchpad),
translates word-based backbone addresses into physical page groups, checks
permissions through the range lock, and issues the resulting flash
transactions to the FPGA controllers.  Kernels never talk to the flash
firmware directly — they pass a queue message containing the request type,
a pointer to their data section, and the word address; Flashvisor does the
rest and the controllers deposit the data in DDR3L.

The class below exposes two timed operations used by the execution
engines:

* :meth:`map_for_read` — translate + read the data section into DDR3L.
* :meth:`map_for_write` — allocate new page groups, buffer the write in
  DDR3L and queue the flash programs for background flushing.

Both include the hardware-queue message latency and the per-group
translation cost charged to the Flashvisor LWP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..sim.engine import Environment
from ..hw.interconnect import MessageQueue
from ..hw.lwp import LWP
from ..hw.memory import DDR3L, Scratchpad
from ..hw.power import STORAGE_ACCESS, EnergyAccountant
from ..flash.backbone import FlashBackbone
from ..flash.ftl import BlockAllocator, OutOfSpaceError, PageGroupMappingTable
from .kernel import Kernel
from .range_lock import READ, WRITE, RangeLock


@dataclass
class MappingRequest:
    """The queue message a kernel sends to Flashvisor (Figure 9)."""

    request_type: str            # "read" | "write"
    kernel_id: int
    data_section_pointer: int    # DDR3L address of the data section
    flash_word_address: int
    num_bytes: int


@dataclass
class FlashvisorStats:
    """Operation counters exposed for tests and reports."""

    read_requests: int = 0
    write_requests: int = 0
    translations: int = 0
    groups_read: int = 0
    groups_allocated: int = 0
    lock_conflicts: int = 0
    lock_wait_time: float = 0.0
    reclaim_requests: int = 0


class Flashvisor:
    """Address translation, protection, and I/O brokering for the backbone."""

    #: Cycles Flashvisor spends to look up / update one page-group entry.
    TRANSLATION_CYCLES_PER_GROUP = 60
    #: Seconds between retries when a range-lock conflict blocks a request.
    LOCK_RETRY_INTERVAL_S = 20e-6

    def __init__(self, env: Environment, lwp: LWP, backbone: FlashBackbone,
                 ddr: DDR3L, scratchpad: Scratchpad,
                 queue: MessageQueue,
                 energy: Optional[EnergyAccountant] = None,
                 word_bytes: int = 4):
        self.env = env
        self.lwp = lwp
        self.backbone = backbone
        self.ddr = ddr
        self.scratchpad = scratchpad
        self.queue = queue
        self.energy = energy
        self.word_bytes = word_bytes
        self.geometry = backbone.geometry
        self.mapping = PageGroupMappingTable(self.geometry)
        self.allocator = BlockAllocator(self.geometry,
                                        backbone.spec.overprovision)
        self.range_lock = RangeLock()
        self.stats = FlashvisorStats()
        self.pending_flush_bytes = 0
        self._next_write_group = 0
        scratchpad.allocate("flashvisor.mapping_table",
                            min(self.mapping.size_bytes(),
                                scratchpad.capacity_bytes // 2))

    # ------------------------------------------------------------------ #
    # Address translation (pure logic, no simulated time)                 #
    # ------------------------------------------------------------------ #
    def translate_read(self, flash_word_address: int,
                       num_bytes: int) -> List[int]:
        """Logical word address + length -> physical page-group numbers.

        Follows Figure 9a: divide the word address by the channel count to
        obtain the logical page group, look it up in the mapping table, and
        derive the package index / page number from the physical group.
        Unmapped logical groups are treated as freshly-initialized data
        (mapped on first use), mirroring how the prototype pre-loads input
        files into the backbone.
        """
        return self._read_extent(*self._extent(flash_word_address, num_bytes))

    def translate_write(self, flash_word_address: int,
                        num_bytes: int) -> List[int]:
        """Allocate fresh physical groups for a write (log-structured)."""
        return self._write_extent(*self._extent(flash_word_address,
                                                num_bytes))

    def _extent(self, flash_word_address: int,
                num_bytes: int) -> Tuple[int, int]:
        """First logical group and group count of a data section."""
        geometry = self.geometry
        start = geometry.word_address_to_group(flash_word_address,
                                               self.word_bytes)
        count = geometry.bytes_to_page_groups(num_bytes)
        if start + count > geometry.page_groups_total:
            raise ValueError(
                f"section of {num_bytes} bytes at address "
                f"{flash_word_address} runs past the backbone")
        return start, count

    # Both extent walks count one translation per group that resolved, so
    # an allocation failure part-way leaves the same counters as a
    # group-at-a-time walk would.
    def _read_extent(self, start: int, count: int) -> List[int]:
        groups = self.mapping.lookup_range(start, count)
        if None in groups:
            try:
                for offset, physical in enumerate(groups):
                    if physical is None:
                        groups[offset] = self._allocate_physical(
                            start + offset)
            except OutOfSpaceError:
                self.stats.translations += offset
                raise
        self.stats.translations += count
        return groups

    def _write_extent(self, start: int, count: int) -> List[int]:
        invalidate = self.allocator.invalidate_group
        groups = []
        try:
            for offset, stale in enumerate(
                    self.mapping.lookup_range(start, count)):
                if stale is not None:
                    invalidate(stale)
                groups.append(self._allocate_physical(start + offset))
        except OutOfSpaceError:
            self.stats.translations += offset
            raise
        self.stats.translations += count
        return groups

    def _allocate_physical(self, logical_group: int) -> int:
        try:
            physical = self.allocator.allocate_group()
        except OutOfSpaceError:
            self.stats.reclaim_requests += 1
            raise
        self.mapping.update(logical_group, physical)
        self.stats.groups_allocated += 1
        return physical

    # ------------------------------------------------------------------ #
    # Timed request handling                                              #
    # ------------------------------------------------------------------ #
    def _translation_time(self, groups: int) -> float:
        cycles = groups * self.TRANSLATION_CYCLES_PER_GROUP
        return cycles / self.lwp.spec.frequency_hz

    def _acquire_range_lock(self, start_group: int, end_group: int,
                            mode: str, owner: int):
        """Process generator: block until the range lock is granted."""
        wait_start = self.env.now
        while True:
            conflict = self.range_lock.try_acquire(start_group, end_group,
                                                   mode, owner)
            if conflict is None:
                break
            self.stats.lock_conflicts += 1
            yield self.env.timeout(self.LOCK_RETRY_INTERVAL_S)
        self.stats.lock_wait_time += self.env.now - wait_start

    def map_for_read(self, kernel: Kernel, flash_word_address: int,
                     num_bytes: int):
        """Process generator: map + fetch a data section for reading.

        Returns the number of bytes brought into DDR3L.
        """
        if num_bytes <= 0:
            return 0
        self.stats.read_requests += 1
        start, count = self._extent(flash_word_address, num_bytes)
        end = start + count - 1
        # Queue message latency from the requesting LWP to Flashvisor.
        yield self.env.timeout(self.queue.latency_s)
        yield from self._acquire_range_lock(start, end, READ,
                                            kernel.kernel_id)
        try:
            # Translation runs on the Flashvisor LWP and touches the
            # scratchpad-resident table.
            yield from self.lwp.busy_for(self._translation_time(count),
                                         bucket=STORAGE_ACCESS)
            self._read_extent(start, count)
            self.stats.groups_read += count
            # Stream the data out of the backbone and land it in DDR3L.
            yield from self.backbone.bulk_read(num_bytes)
            yield from self.ddr.write(num_bytes)
        finally:
            self.range_lock.release(start, end, kernel.kernel_id)
        return num_bytes

    def map_for_write(self, kernel: Kernel, flash_word_address: int,
                      num_bytes: int):
        """Process generator: map a data section for writing.

        The payload is buffered in DDR3L (which "buffers the majority of
        flash writes", Section 2.2); the flash programs themselves are
        queued as pending flush work that Storengine drains in the
        background, so the requesting worker is not stalled on the 2.6 ms
        TLC program latency.
        """
        if num_bytes <= 0:
            return 0
        self.stats.write_requests += 1
        start, count = self._extent(flash_word_address, num_bytes)
        end = start + count - 1
        yield self.env.timeout(self.queue.latency_s)
        yield from self._acquire_range_lock(start, end, WRITE,
                                            kernel.kernel_id)
        try:
            yield from self.lwp.busy_for(self._translation_time(count),
                                         bucket=STORAGE_ACCESS)
            self._write_extent(start, count)
            yield from self.ddr.write(num_bytes)
            self.pending_flush_bytes += num_bytes
        finally:
            self.range_lock.release(start, end, kernel.kernel_id)
        return num_bytes

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #
    def mapping_table_bytes(self) -> int:
        """Scratchpad footprint of the full mapping table (paper: ~2 MB)."""
        return self.mapping.size_bytes()

    def mapped_capacity_bytes(self) -> int:
        return len(self.mapping.mapped_groups()) * self.geometry.page_group_bytes
