"""Flashvisor: the LWP that virtualizes the flash backbone (Section 4.3).

Flashvisor owns the page-group mapping table (kept in the scratchpad),
translates word-based backbone addresses into physical page groups, checks
permissions through the range lock, and issues the resulting flash
transactions to the backbone (the paper's FPGA controllers).  Kernels
never talk to the flash firmware directly — they pass a queue message
containing the request type, a pointer to their data section, and the word
address; Flashvisor does the rest and the data section streams between the
backbone's bulk lanes and DDR3L.

The class below exposes two timed operations used by the execution
engines:

* :meth:`map_for_read` — translate + read the data section into DDR3L.
* :meth:`map_for_write` — allocate new page groups, buffer the write in
  DDR3L and queue the flash programs for background flushing.

Both include the hardware-queue message latency and the per-group
translation cost charged to the Flashvisor LWP.

Translation works on a data section's whole extent, in runs.  A read
binds each maximal run of the section's unmapped groups (a section already
mapped costs one bitmap scan); a write binds the whole section.  A run
binds to consecutive groups of the active block row, and only then are
the groups it replaced invalidated, so a write that runs out of space
part-way leaves every group it did not reach mapped and valid.  The
simulated translation cost is per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..sim.engine import Environment
from ..hw.lwp import LWP
from ..hw.memory import DDR3L, Scratchpad
from ..hw.power import STORAGE_ACCESS, EnergyAccountant
from ..flash.backbone import FlashBackbone
from ..flash.ftl import BlockAllocator, OutOfSpaceError, PageGroupMappingTable
from .kernel import Kernel
from .range_lock import READ, WRITE, RangeLock


@dataclass
class FlashvisorStats:
    """Operation counters read by reports, benchmarks and examples."""

    read_requests: int = 0
    write_requests: int = 0
    translations: int = 0
    lock_conflicts: int = 0


def _no_wake() -> None:
    """The wake hook while no Storengine listens."""


class Flashvisor:
    """Address translation, protection, and I/O brokering for the backbone."""

    #: Cycles Flashvisor spends to look up / update one page-group entry.
    TRANSLATION_CYCLES_PER_GROUP = 60
    #: Seconds between retries when a range-lock conflict blocks a request.
    LOCK_RETRY_INTERVAL_S = 20e-6

    def __init__(self, env: Environment, lwp: LWP, backbone: FlashBackbone,
                 ddr: DDR3L, scratchpad: Scratchpad,
                 message_latency_s: float,
                 energy: Optional[EnergyAccountant] = None,
                 word_bytes: int = 4):
        self.env = env
        self.lwp = lwp
        self.backbone = backbone
        self.ddr = ddr
        self.scratchpad = scratchpad
        #: Hardware message-queue latency of one request to Flashvisor.
        self.message_latency_s = message_latency_s
        self.energy = energy
        self.word_bytes = word_bytes
        self.geometry = backbone.geometry
        self.mapping = PageGroupMappingTable(self.geometry)
        self.allocator = BlockAllocator(self.geometry,
                                        backbone.spec.overprovision)
        self.range_lock = RangeLock()
        self.stats = FlashvisorStats()
        self._pending_flush_bytes = 0
        #: Called when background work appears: the write buffer grows,
        #: or an allocation leaves the allocator needing GC.  Storengine
        #: installs its wake here and restores the no-op in ``stop()``,
        #: so a finished device graph holds no cycle through it.
        self.wake_storengine: Callable[[], None] = _no_wake
        scratchpad.allocate("flashvisor.mapping_table",
                            min(self.mapping.size_bytes(),
                                scratchpad.capacity_bytes // 2))

    @property
    def pending_flush_bytes(self) -> int:
        """Bytes buffered in DDR3L that Storengine has yet to program."""
        return self._pending_flush_bytes

    @pending_flush_bytes.setter
    def pending_flush_bytes(self, value: int) -> None:
        grew = value > self._pending_flush_bytes
        self._pending_flush_bytes = value
        if grew:
            self.wake_storengine()

    # ------------------------------------------------------------------ #
    # Address translation (pure logic, no simulated time)                 #
    # ------------------------------------------------------------------ #
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

    def _read_extent(self, start: int, count: int) -> None:
        runs = self.mapping.unmapped_runs(start, count)
        if runs:
            self._bind_extent(start, count, runs)
        else:
            # Most reads find their section mapped: skip the binder.
            self.stats.translations += count

    def _write_extent(self, start: int, count: int) -> List[int]:
        return self._bind_extent(start, count, [(start, count)])

    def _bind_extent(self, start: int, count: int,
                     runs: List[Tuple[int, int]]) -> List[int]:
        """Bind fresh physical groups to each ``(first, length)`` run of
        the extent; returns them in order.

        Counts one translation per group of the extent, or on running out
        of space, one per group before the one that found no space.
        """
        allocator = self.allocator
        stats = self.stats
        groups: List[int] = []
        try:
            for first, length in runs:
                end = first + length
                while first < end:
                    physical = allocator.allocate_run(end - first)
                    allocator.retire(self.mapping.bind_run(first, physical))
                    first += len(physical)
                    groups += physical
        except OutOfSpaceError:
            stats.translations += first - start
            raise
        finally:
            if allocator.needs_gc():
                self.wake_storengine()
        stats.translations += count
        return groups

    # ------------------------------------------------------------------ #
    # Timed request handling                                              #
    # ------------------------------------------------------------------ #
    def _translation_time(self, groups: int) -> float:
        cycles = groups * self.TRANSLATION_CYCLES_PER_GROUP
        return cycles / self.lwp.spec.frequency_hz

    def _acquire_range_lock(self, start_group: int, end_group: int,
                            mode: str, owner: int):
        """Process generator: block until the range lock is granted."""
        while True:
            conflict = self.range_lock.try_acquire(start_group, end_group,
                                                   mode, owner)
            if conflict is None:
                break
            self.stats.lock_conflicts += 1
            yield self.env.timeout(self.LOCK_RETRY_INTERVAL_S)

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
        yield self.env.timeout(self.message_latency_s)
        yield from self._acquire_range_lock(start, end, READ,
                                            kernel.kernel_id)
        try:
            # Translation runs on the Flashvisor LWP and touches the
            # scratchpad-resident table.
            yield from self.lwp.busy_for(self._translation_time(count),
                                         bucket=STORAGE_ACCESS)
            self._read_extent(start, count)
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
        yield self.env.timeout(self.message_latency_s)
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
