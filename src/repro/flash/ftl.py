"""Flash translation structures shared by Flashvisor and Storengine.

Flashvisor performs log-structured, page-group-granularity mapping
(Section 4.3): logical page-group numbers map to physical page-group
numbers through a table kept in the scratchpad; writes always allocate the
next free physical group; exhausted blocks go to a used-block pool from
which Storengine reclaims them round-robin.

This module holds the pure data structures (no timing): the mapping table,
the block/group allocator, and validity tracking needed by garbage
collection.  Timing is applied by the components that use them.

A data section is contiguous, so it maps onto consecutive physical groups
of one block row.  Both structures therefore work in runs, and runs are
the only way the table changes: :meth:`BlockAllocator.allocate_run` hands
out up to the rest of the active row, :meth:`PageGroupMappingTable.bind_run`
binds a run of logical groups to them and returns the groups it replaced,
and :meth:`BlockAllocator.retire` invalidates those.  The table keeps a
mapped bitmap, so :meth:`PageGroupMappingTable.unmapped_runs` finds the
parts of a section that still need binding.

Every caller binds before it retires, so a physical group is valid exactly
while a logical group maps to it.  Garbage collection relies on that: a
row's valid groups are the ones it must migrate, and no mapping can point
into a row it erased.  A block row's state is built when the row is first
opened; a row never opened is erased, empty and unworn.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from .geometry import FlashGeometry


class OutOfSpaceError(RuntimeError):
    """Raised when no free physical page group can be allocated."""


@dataclass
class BlockRowState:
    """State of one block row (a block stripe across channels/planes).

    A block row contains ``pages_per_block`` physical page groups.  The
    allocator writes rows sequentially; garbage collection erases them and
    returns them to the free pool.
    """

    row_id: int
    valid_groups: Set[int] = field(default_factory=set)
    next_free_offset: int = 0

    @property
    def valid_count(self) -> int:
        return len(self.valid_groups)


class PageGroupMappingTable:
    """Logical page group -> physical page group mapping.

    The paper sizes this table at 2 MB for 32 GB with 64 KB page groups;
    :meth:`size_bytes` reproduces that arithmetic so tests can check the
    scratchpad budget claim.
    """

    ENTRY_BYTES = 4

    def __init__(self, geometry: FlashGeometry):
        self.geometry = geometry
        self._map: Dict[int, int] = {}
        # Maintained inverse of _map.  Storengine's GC resolves the
        # logical owner of every valid group it migrates, so the reverse
        # direction must be O(1) rather than a table scan.
        self._reverse: Dict[int, int] = {}
        # One byte per logical group, 1 while it is mapped, grown only up
        # to the highest group ever mapped (a full-size bitmap would be
        # 512 KB per device).
        self._mapped = bytearray()

    def lookup(self, logical_group: int) -> Optional[int]:
        """Physical group currently backing ``logical_group`` (or None)."""
        return self._map.get(logical_group)

    def unmapped_runs(self, start: int,
                      count: int) -> List[Tuple[int, int]]:
        """``(first, length)`` of each maximal run of unmapped groups
        among the ``count`` groups from ``start``, in order (groups past
        the end of the bitmap are unmapped)."""
        mapped = self._mapped
        # Most reads find every group mapped: one scan, no copy.
        if mapped.count(1, start, start + count) == count:
            return []
        bits = mapped[start:start + count].ljust(count, b"\0")
        runs = []
        offset = bits.find(0)
        while offset >= 0:
            stop = bits.find(1, offset)
            if stop < 0:
                stop = count
            runs.append((start + offset, stop - offset))
            offset = bits.find(0, stop)
        return runs

    def bind_run(self, start: int, physical: List[int]) -> List[int]:
        """Bind the groups from ``start`` to ``physical``, one for one.

        Returns the physical groups the run replaced, for the caller to
        retire once the binding is in place.
        """
        forward = self._map
        reverse = self._reverse
        end = start + len(physical)
        replaced = []
        unmapped = False
        for owner, new in zip(range(start, end), physical):
            old = forward.get(owner)
            if old is None:
                unmapped = True
            else:
                del reverse[old]
                replaced.append(old)
            forward[owner] = new
            reverse[new] = owner
        if unmapped:
            mapped = self._mapped
            if end > len(mapped):
                mapped.extend(bytes(end - len(mapped)))
            mapped[start:end] = b"\x01" * (end - start)
        return replaced

    def reverse_lookup(self, physical_group: int) -> Optional[int]:
        return self._reverse.get(physical_group)

    def __len__(self) -> int:
        return len(self._map)

    def size_bytes(self) -> int:
        """Scratchpad bytes needed to map the whole backbone."""
        return self.geometry.page_groups_total * self.ENTRY_BYTES


class BlockAllocator:
    """Log-structured allocator over block rows with free/used pools."""

    def __init__(self, geometry: FlashGeometry, overprovision: float = 0.07):
        if not 0.0 <= overprovision < 1.0:
            raise ValueError("overprovision must be in [0, 1)")
        self.geometry = geometry
        self.groups_per_row = geometry.groups_per_block_row
        total_rows = geometry.page_groups_total // self.groups_per_row
        self.reserved_rows = max(1, int(total_rows * overprovision))
        # Built on first open: a run opens a few dozen to about a hundred
        # of the device's rows.
        self.rows: Dict[int, BlockRowState] = {}
        # Both pools are popped from the left on every allocation / GC
        # cycle; deques make those O(1) where lists would shift the whole
        # pool (the Storengine GC hot path under sustained writes).
        self.free_rows: Deque[int] = deque(range(total_rows))
        self.used_rows: Deque[int] = deque()
        self._active_row: Optional[int] = None

    # -- allocation ---------------------------------------------------------
    def allocate_run(self, count: int) -> List[int]:
        """Up to ``count`` consecutive free groups of the active row.

        Opens the next free row first when no row is active, and raises
        :class:`OutOfSpaceError` when none is left; otherwise returns at
        least one group.
        """
        # A row leaves the active slot the moment it fills.
        if self._active_row is None:
            self._open_new_row()
        row = self.rows[self._active_row]
        per_row = self.groups_per_row
        offset = row.next_free_offset
        taken = per_row - offset
        if count < taken:
            taken = count
        first = row.row_id * per_row + offset
        run = list(range(first, first + taken))
        row.next_free_offset = offset + taken
        row.valid_groups.update(run)
        if offset + taken == per_row:
            self.used_rows.append(row.row_id)
            self._active_row = None
        return run

    def _open_new_row(self) -> None:
        if not self.free_rows:
            raise OutOfSpaceError("no free block rows; GC required")
        row_id = self._active_row = self.free_rows.popleft()
        row = self.rows.get(row_id)
        if row is None:
            self.rows[row_id] = BlockRowState(row_id)
        else:
            row.next_free_offset = 0
            row.valid_groups.clear()

    def retire(self, stale: List[int]) -> None:
        """Invalidate ``stale`` groups, which no logical group maps any
        more (the row may later be reclaimed)."""
        rows = self.rows
        for row_id in {group // self.groups_per_row for group in stale}:
            rows[row_id].valid_groups.difference_update(stale)

    # -- GC support ----------------------------------------------------------
    def pick_victim_round_robin(self) -> Optional[int]:
        """Pop the oldest used row (the paper's Storengine victim policy)."""
        if not self.used_rows:
            return None
        return self.used_rows.popleft()

    def pick_victim_greedy(self) -> Optional[int]:
        """Pick the used row with the fewest valid groups (ablation policy)."""
        if not self.used_rows:
            return None
        victim = min(self.used_rows, key=lambda r: self.rows[r].valid_count)
        self.used_rows.remove(victim)
        return victim

    def reclaim_row(self, row_id: int) -> None:
        """Return an erased row to the free pool."""
        row = self.rows[row_id]
        row.valid_groups.clear()
        row.next_free_offset = 0
        self.free_rows.append(row_id)

    # -- metrics -----------------------------------------------------------
    @property
    def free_group_count(self) -> int:
        free = len(self.free_rows) * self.groups_per_row
        if self._active_row is not None:
            row = self.rows[self._active_row]
            free += self.groups_per_row - row.next_free_offset
        return free

    def needs_gc(self) -> bool:
        """True when the free pool has shrunk into the reserved region."""
        return len(self.free_rows) <= self.reserved_rows
