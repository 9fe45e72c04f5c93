"""Storengine: background flash management on a dedicated LWP (Section 4.3).

Storengine relieves Flashvisor of the time-consuming flash-firmware work so
that address translation never stalls kernel execution:

* it drains the DDR3L write buffer into the backbone (flash programs),
* it journals the scratchpad-resident mapping table to flash periodically,
* it reclaims physical block rows, choosing victims from the used pool in a
  simple round-robin order (the paper's deliberately cheap policy) and
  migrating the still-valid page groups before erasing.

All of this runs as a background simulation process that competes with the
workers only for backbone bandwidth — exactly the paper's design point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.engine import Environment
from ..hw.lwp import LWP
from ..hw.power import STORAGE_ACCESS, EnergyAccountant
from ..flash.backbone import FlashBackbone
from .flashvisor import Flashvisor


@dataclass
class StorengineStats:
    """Background-activity counters."""

    flushed_bytes: int = 0
    journal_dumps: int = 0
    journal_bytes: int = 0
    gc_invocations: int = 0
    migrated_groups: int = 0
    erased_rows: int = 0


class Storengine:
    """Background storage-management process."""

    def __init__(self, env: Environment, lwp: LWP, flashvisor: Flashvisor,
                 backbone: FlashBackbone,
                 energy: Optional[EnergyAccountant] = None,
                 poll_interval_s: float = 2e-3,
                 journal_interval_s: float = 50e-3,
                 flush_chunk_bytes: int = 8 * 1024 * 1024,
                 victim_policy: str = "round_robin"):
        if victim_policy not in ("round_robin", "greedy"):
            raise ValueError(f"unknown victim policy: {victim_policy!r}")
        self.env = env
        self.lwp = lwp
        self.flashvisor = flashvisor
        self.backbone = backbone
        self.energy = energy
        self.poll_interval_s = poll_interval_s
        self.journal_interval_s = journal_interval_s
        self.flush_chunk_bytes = flush_chunk_bytes
        self.victim_policy = victim_policy
        self.stats = StorengineStats()
        self._stopped = False
        self._last_journal = env.now
        self._process = env.spawn(self._run())

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Ask the background loop to exit at its next poll."""
        self._stopped = True

    # ------------------------------------------------------------------ #
    # Background loop                                                     #
    # ------------------------------------------------------------------ #
    def _run(self):
        while not self._stopped:
            did_work = False
            if self.flashvisor.pending_flush_bytes > 0:
                yield from self._flush_some()
                did_work = True
            if self.flashvisor.allocator.needs_gc():
                yield from self._collect_garbage()
                did_work = True
            if (self.env.now - self._last_journal) >= self.journal_interval_s:
                yield from self._journal_metadata()
                did_work = True
            if not did_work:
                yield self.env.timeout(self.poll_interval_s)

    # ------------------------------------------------------------------ #
    # Write-buffer flushing                                               #
    # ------------------------------------------------------------------ #
    def _flush_some(self):
        chunk = min(self.flashvisor.pending_flush_bytes,
                    self.flush_chunk_bytes)
        self.flashvisor.pending_flush_bytes -= chunk
        yield from self.backbone.bulk_program(chunk)
        self.stats.flushed_bytes += chunk

    def drain(self):
        """Process generator: synchronously flush all buffered writes.

        The evaluation runner calls this at the end of a workload so that
        storage energy reflects every byte the workload produced.
        """
        while self.flashvisor.pending_flush_bytes > 0:
            yield from self._flush_some()

    # ------------------------------------------------------------------ #
    # Metadata journaling                                                 #
    # ------------------------------------------------------------------ #
    def _journal_metadata(self):
        # The page-table entries for each block are persisted to the first
        # two pages of the block (Section 4.3); a periodic dump of the
        # scratchpad snapshot is modeled as a small bulk program.
        snapshot_bytes = 2 * self.backbone.spec.page_bytes
        yield from self.lwp.busy_for(20e-6, bucket=STORAGE_ACCESS)
        yield from self.backbone.bulk_program(snapshot_bytes)
        self.stats.journal_dumps += 1
        self.stats.journal_bytes += snapshot_bytes
        self._last_journal = self.env.now

    # ------------------------------------------------------------------ #
    # Garbage collection / wear-leveling                                  #
    # ------------------------------------------------------------------ #
    def _pick_victim(self) -> Optional[int]:
        allocator = self.flashvisor.allocator
        if self.victim_policy == "greedy":
            return allocator.pick_victim_greedy()
        return allocator.pick_victim_round_robin()

    def _collect_garbage(self):
        """Reclaim one block row: migrate valid groups, erase, free."""
        allocator = self.flashvisor.allocator
        victim_row = self._pick_victim()
        if victim_row is None:
            yield self.env.timeout(self.poll_interval_s)
            return
        self.stats.gc_invocations += 1
        row = allocator.rows[victim_row]
        valid_groups = sorted(row.valid_groups)
        # Load the page-table entries for the victim row from flash
        # (Storengine does not scan the whole table; it loads the two
        # metadata pages of the victim block).
        yield from self.backbone.bulk_read(2 * self.backbone.spec.page_bytes)
        for physical_group in valid_groups:
            logical = self.flashvisor.mapping.reverse_lookup(physical_group)
            yield from self.backbone.read_page_group(physical_group)
            new_physical = allocator.allocate_group()
            yield from self.backbone.program_page_group(new_physical)
            if logical is not None:
                self.flashvisor.mapping.update(logical, new_physical)
            self.stats.migrated_groups += 1
        yield from self.backbone.erase_block_row(victim_row)
        allocator.reclaim_row(victim_row)
        self.stats.erased_rows += 1
        if self.energy is not None:
            # Storengine compute share of the reclaim, charged as storage.
            self.energy.charge_power(f"lwp{self.lwp.lwp_id}", STORAGE_ACCESS,
                                     self.lwp.spec.power_per_core_w, 50e-6)
