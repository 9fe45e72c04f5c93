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
of one block row.  Both structures therefore also work in runs: the table
keeps a mapped bitmap that answers "is this section all mapped?" with one
scan, :meth:`BlockAllocator.allocate_run` hands out up to the rest of the
active row in one call, :meth:`PageGroupMappingTable.bind_run` binds a run
in one pass, and :meth:`BlockAllocator.retire` invalidates the groups a
rewrite replaces, row by row.  A block row's state is built when the row
is first opened; a row never opened is erased, empty and unworn.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set

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
    erase_count: int = 0
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

    def lookup_range(self, start: int, count: int) -> List[Optional[int]]:
        """Physical groups (or None) backing ``count`` groups from ``start``."""
        return list(map(self._map.get, range(start, start + count)))

    def mapped_count(self, start: int, count: int) -> int:
        """How many of ``count`` groups from ``start`` are mapped."""
        return self._mapped.count(1, start, start + count)

    def _mark(self, start: int, end: int) -> None:
        """Set the mapped bits of groups ``start`` to ``end - 1``."""
        mapped = self._mapped
        if end > len(mapped):
            mapped.extend(bytes(end - len(mapped)))
        mapped[start:end] = b"\x01" * (end - start)

    def update(self, logical_group: int, physical_group: int) -> Optional[int]:
        """Bind ``logical_group`` to ``physical_group``; returns the old one."""
        if logical_group < 0:
            raise ValueError("logical_group must be non-negative")
        old = self._map.get(logical_group)
        if old is not None and self._reverse.get(old) == logical_group:
            del self._reverse[old]
        self._map[logical_group] = physical_group
        self._reverse[physical_group] = logical_group
        if old is None:
            self._mark(logical_group, logical_group + 1)
        return old

    def bind_run(self, start: int, physical: List[int]) -> None:
        """Bind the groups from ``start`` to ``physical``, one for one.

        The result is :meth:`update` per group, in order.
        """
        forward = self._map
        reverse = self._reverse
        end = start + len(physical)
        unmapped = False
        for owner, new in zip(range(start, end), physical):
            old = forward.get(owner)
            if old is None:
                unmapped = True
            elif reverse.get(old) == owner:
                del reverse[old]
            forward[owner] = new
            reverse[new] = owner
        if unmapped:
            self._mark(start, end)

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
        self.total_rows = total_rows
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
        self.groups_written = 0

    # -- allocation ---------------------------------------------------------
    def allocate_group(self) -> int:
        """Return the next free physical page-group number."""
        return self.allocate_run(1)[0]

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
        self.groups_written += taken
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

    def retire(self, stale: List[int]) -> bool:
        """Invalidate the groups a rewrite of ``len(stale)`` groups replaces.

        A group-at-a-time rewrite invalidates each stale group just
        before it allocates the replacement, so when space runs out
        part-way, the stale groups past the failing one stay valid; this
        does the same.  Returns False and changes nothing if a stale group
        was not written since its row's last erase: the rewrite could then
        be handed that group again, and only the group-at-a-time order
        gives the right result.
        """
        per_row = self.groups_per_row
        if len(stale) > len(self.free_rows) * per_row:
            stale = stale[:self.free_group_count + 1]
        # Row by row, lowest first: the highest stale group of each row
        # must lie below the row's fill point.
        ordered = sorted(stale)
        rows = []
        index = 0
        while index < len(ordered):
            row = self.rows.get(ordered[index] // per_row)
            if row is None:
                return False
            base = row.row_id * per_row
            index = bisect_left(ordered, base + per_row, index)
            if ordered[index - 1] >= base + row.next_free_offset:
                return False
            rows.append(row)
        for row in rows:
            row.valid_groups.difference_update(stale)
        return True

    # -- validity / GC support -----------------------------------------------
    def invalidate_group(self, physical_group: int) -> None:
        """Mark a physical group as stale (its row may later be reclaimed)."""
        row = self.rows.get(physical_group // self.groups_per_row)
        if row is not None:
            row.valid_groups.discard(physical_group)

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
        row.erase_count += 1
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
