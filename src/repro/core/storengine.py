"""Storengine: background flash management on a dedicated LWP (Section 4.3).

Storengine relieves Flashvisor of the time-consuming flash-firmware work so
that address translation never stalls kernel execution:

* it drains the DDR3L write buffer into the backbone (flash programs),
* it journals the scratchpad-resident mapping table to flash periodically,
* it reclaims physical block rows, choosing victims from the used pool in a
  simple round-robin order (the paper's deliberately cheap policy) and
  migrating the still-valid page groups before erasing.  A copy is bound
  only if its group is still live when the copy lands, so a physical
  group stays valid exactly while a logical group maps to it.

All of this runs as a background simulation process that competes with the
workers only for backbone bandwidth — exactly the paper's design point.

The modelled firmware checks for work every ``poll_interval_s`` (2 ms).
The simulation keeps that grid but does not simulate checks whose outcome
is already known: an idle Storengine sleeps on one timeout at the first
grid tick where the journal falls due, and three state changes wake it
early, at the first grid tick at or after the wake (see :meth:`_wake`).

Nor does it simulate what nothing else can observe.  Before it sleeps,
Storengine applies at once every idle check and journal dump step that
falls strictly before :meth:`~repro.sim.engine.Environment.quiet_until`
(the next foreign event or the running loop's horizon): until then no
other process runs, so no state changes and no wake happens.  Each step
lands at its own instant and in its original order, so the effects —
the Fig. 15a functional-unit samples, the power series, the order of
the storage-energy charges, the program lane's reservations — are those
of the simulated steps, bit for bit.  A step at or after that instant
waits on a timeout as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.engine import Environment
from ..hw.lwp import LWP
from ..hw.power import STORAGE_ACCESS, EnergyAccountant
from ..flash.backbone import FlashBackbone
from .flashvisor import Flashvisor, _no_wake


#: Most grid ticks one idle sleep spans.  A journal interval far longer
#: than the poll interval (1000 s against 0.1 ms, say) would otherwise
#: cost one float addition per skipped tick up front; a sleep that
#: reaches this cap ends in one idle check and sleeps again.
_MAX_SLEEP_TICKS = 256

#: Most idle checks applied ahead of the clock between two sleeps, so
#: also within one resume.  With no other event pending and no horizon
#: (Storengine the last process left) nothing bounds the replay; past
#: this cap it sleeps on a timeout, so the engine loop regains control
#: and its watchdog can trip.
_MAX_QUIET_CHECKS = 256

#: Storengine's compute time per journal dump, charged as storage.
_JOURNAL_BUSY_S = 20e-6


@dataclass
class StorengineStats:
    """Background-activity counters."""

    flushed_bytes: int = 0
    journal_dumps: int = 0
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
        # The idle sleep: its pending timeout (None while awake or once
        # woken) and the tick of the idle check that started it.
        self._timer = None
        self._idle_tick = env.now
        flashvisor.wake_storengine = self._wake
        env.spawn(self._run())

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Ask the background loop to exit at its next poll."""
        self._stopped = True
        self._wake()
        # Drop Flashvisor's back-reference: left in place it would keep
        # the whole device graph in a reference cycle after the run.
        if self.flashvisor.wake_storengine == self._wake:
            self.flashvisor.wake_storengine = _no_wake

    # ------------------------------------------------------------------ #
    # Background loop                                                     #
    # ------------------------------------------------------------------ #
    def _run(self):
        env = self.env
        flashvisor = self.flashvisor
        # The instant of the current check: the clock, or an instant
        # ahead of it that no other event can observe.
        now = env.now
        quiet_checks = 0
        while not self._stopped:
            did_work = False
            if flashvisor.pending_flush_bytes > 0:
                yield from self._flush_some()
                did_work = True
            if flashvisor.allocator.needs_gc():
                yield from self._collect_garbage()
                did_work = True
            if did_work:
                now = env.now
            if now - self._last_journal >= self.journal_interval_s:
                now = yield from self._journal_metadata(now)
                if now > env.now and (self._stopped
                                      or flashvisor.pending_flush_bytes > 0
                                      or flashvisor.allocator.needs_gc()):
                    # The dump ended ahead of the clock, but work is left
                    # (a flush chunk or a GC row from before it, or what
                    # an event set while it waited): that work, or the
                    # exit, starts on the clock at the dump's end.
                    yield env.timeout_at(now)
            elif not did_work:
                self._idle_tick = now
                tick = self._sleep_until()
                if (tick < env.quiet_until()
                        and quiet_checks < _MAX_QUIET_CHECKS):
                    # Nothing can observe this check: apply it at once.
                    now = tick
                    quiet_checks += 1
                else:
                    quiet_checks = 0
                    self._timer = env.timeout_at(tick)
                    yield self._timer
                    self._timer = None
                    now = env.now

    def _sleep_until(self) -> float:
        """The first poll tick after this idle check where the journal is
        due, or the tick ``_MAX_SLEEP_TICKS`` ahead if that comes first.

        Ticks are built by repeated float addition, as successive
        ``timeout(poll_interval_s)`` calls would build them, so every
        tick is bit-identical to the poll it stands for.
        """
        tick = self._idle_tick
        poll = self.poll_interval_s
        last = self._last_journal
        interval = self.journal_interval_s
        for _ in range(_MAX_SLEEP_TICKS):
            tick = tick + poll
            if tick - last >= interval:
                break
        return tick

    def _wake(self) -> None:
        """New work may exist: end the idle sleep at the next grid tick.

        The wake sources are the write buffer growing, an allocation
        leaving the allocator needing GC (both via
        ``Flashvisor.wake_storengine``) and :meth:`stop`.  The grid is
        the polls after the idle check that began the sleep; the sleep
        is re-keyed to the first of them at or after now, the poll at
        which the firmware would first see the change.  Tie rule: a
        wake at exactly a grid tick re-keys to that tick.  A wake while
        Storengine is awake or already woken is a no-op.
        """
        timer = self._timer
        if timer is None:
            return
        self._timer = None
        now = self.env.now
        poll = self.poll_interval_s
        tick = self._idle_tick + poll
        while tick < now:
            tick = tick + poll
        self.env.reschedule(timer, tick)

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
    def _journal_metadata(self, start: float):
        """Process generator: one dump beginning at instant ``start``;
        returns the instant it ends.

        The page-table entries for each block are persisted to the first
        two pages of the block (Section 4.3); a periodic dump of the
        scratchpad snapshot is modeled as a 20 us busy period on the
        Storengine LWP followed by a small bulk program.  Its three steps
        (busy begins, busy ends and the program is issued, the program
        completes) each apply at once when they fall before
        :meth:`~repro.sim.engine.Environment.quiet_until`, and otherwise
        wait on a timeout to their instant.
        """
        env = self.env
        lwp = self.lwp
        backbone = self.backbone
        snapshot_bytes = 2 * backbone.spec.page_bytes
        lwp.begin_busy(1, start)
        issued = start + _JOURNAL_BUSY_S
        if issued >= env.quiet_until():
            yield env.timeout_at(issued)
        lwp.end_busy(1, issued)
        lwp.charge(STORAGE_ACCESS, _JOURNAL_BUSY_S)
        end = backbone.reserve_program(snapshot_bytes, issued)
        if end >= env.quiet_until():
            yield env.timeout_at(end)
        backbone.complete_program(snapshot_bytes, issued, end)
        self.stats.journal_dumps += 1
        self._last_journal = end
        return end

    # ------------------------------------------------------------------ #
    # Garbage collection / wear-leveling                                  #
    # ------------------------------------------------------------------ #
    def _pick_victim(self) -> Optional[int]:
        allocator = self.flashvisor.allocator
        if self.victim_policy == "greedy":
            return allocator.pick_victim_greedy()
        return allocator.pick_victim_round_robin()

    def _collect_garbage(self):
        """Reclaim one block row: migrate valid groups, erase, free.

        Flashvisor keeps serving while the copies are made, so a group
        rewritten since the victim was picked is no longer valid and is
        skipped, and a copy whose owner was rewritten during the copy is
        invalidated rather than bound.
        """
        allocator = self.flashvisor.allocator
        mapping = self.flashvisor.mapping
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
            if physical_group not in row.valid_groups:
                continue
            logical = mapping.reverse_lookup(physical_group)
            yield from self.backbone.read_page_group(physical_group)
            copy = allocator.allocate_run(1)
            yield from self.backbone.program_page_group(copy[0])
            if mapping.lookup(logical) == physical_group:
                allocator.retire(mapping.bind_run(logical, copy))
            else:
                allocator.retire(copy)
            self.stats.migrated_groups += 1
        yield from self.backbone.erase_block_row(victim_row)
        allocator.reclaim_row(victim_row)
        self.stats.erased_rows += 1
        if self.energy is not None:
            # Storengine compute share of the reclaim, charged as storage.
            self.energy.charge_power(f"lwp{self.lwp.lwp_id}", STORAGE_ACCESS,
                                     self.lwp.spec.power_per_core_w, 50e-6)
