"""Flash translation structures shared by Flashvisor and Storengine.

Flashvisor performs log-structured, page-group-granularity mapping
(Section 4.3): logical page-group numbers map to physical page-group
numbers through a table kept in the scratchpad; writes always allocate the
next free physical group; exhausted blocks go to a used-block pool from
which Storengine reclaims them round-robin.

This module holds the pure data structures (no timing): the mapping table,
the block/group allocator, and validity tracking needed by garbage
collection.  Timing is applied by the components that use them.
"""

from __future__ import annotations

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

    def is_full(self, groups_per_row: int) -> bool:
        return self.next_free_offset >= groups_per_row

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

    def lookup(self, logical_group: int) -> Optional[int]:
        """Physical group currently backing ``logical_group`` (or None)."""
        return self._map.get(logical_group)

    def lookup_range(self, start: int, count: int) -> List[Optional[int]]:
        """Physical groups (or None) backing ``count`` groups from ``start``."""
        return list(map(self._map.get, range(start, start + count)))

    def update(self, logical_group: int, physical_group: int) -> Optional[int]:
        """Bind ``logical_group`` to ``physical_group``; returns the old one."""
        if logical_group < 0:
            raise ValueError("logical_group must be non-negative")
        old = self._map.get(logical_group)
        if old is not None and self._reverse.get(old) == logical_group:
            del self._reverse[old]
        self._map[logical_group] = physical_group
        self._reverse[physical_group] = logical_group
        return old

    def invalidate(self, logical_group: int) -> Optional[int]:
        old = self._map.pop(logical_group, None)
        if old is not None and self._reverse.get(old) == logical_group:
            del self._reverse[old]
        return old

    def reverse_lookup(self, physical_group: int) -> Optional[int]:
        return self._reverse.get(physical_group)

    def __len__(self) -> int:
        return len(self._map)

    def size_bytes(self) -> int:
        """Scratchpad bytes needed to map the whole backbone."""
        return self.geometry.page_groups_total * self.ENTRY_BYTES

    def mapped_groups(self) -> List[int]:
        return sorted(self._map)


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
        self.rows: Dict[int, BlockRowState] = {
            r: BlockRowState(r) for r in range(total_rows)
        }
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
        if self._active_row is None or self.rows[self._active_row].is_full(
                self.groups_per_row):
            self._open_new_row()
        row = self.rows[self._active_row]
        physical_group = (row.row_id * self.groups_per_row
                          + row.next_free_offset)
        row.next_free_offset += 1
        row.valid_groups.add(physical_group)
        self.groups_written += 1
        if row.is_full(self.groups_per_row):
            self.used_rows.append(row.row_id)
            self._active_row = None
        return physical_group

    def _open_new_row(self) -> None:
        if not self.free_rows:
            raise OutOfSpaceError("no free block rows; GC required")
        self._active_row = self.free_rows.popleft()
        row = self.rows[self._active_row]
        row.next_free_offset = 0
        row.valid_groups.clear()

    # -- validity / GC support -----------------------------------------------
    def invalidate_group(self, physical_group: int) -> None:
        """Mark a physical group as stale (its row may later be reclaimed)."""
        row_id = physical_group // self.groups_per_row
        if row_id in self.rows:
            self.rows[row_id].valid_groups.discard(physical_group)

    def row_of(self, physical_group: int) -> BlockRowState:
        return self.rows[physical_group // self.groups_per_row]

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

    def wear_spread(self) -> int:
        """Difference between the most- and least-erased rows."""
        counts = [row.erase_count for row in self.rows.values()]
        return max(counts) - min(counts)
