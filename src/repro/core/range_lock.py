"""Range lock protecting flash-mapped data sections (Section 4.3).

Flashvisor does not tag every page-table entry with an owner; instead it
keeps a lock over page ranges.  A request to map a data section for
*reads* is blocked while any overlapping range is locked for *writes*,
and a *write* mapping is blocked while any overlapping range is locked
at all (read or write) — i.e. multiple concurrent readers are allowed,
writers are exclusive.

The paper's firmware keeps the held ranges in an augmented red-black
interval tree.  The simulator keeps a plain list of ``(start, end,
mode, owner)`` tuples in acquisition order instead, for two reasons:
the tree's cost is not simulated (Flashvisor's lookup time is charged
per translated page group, not per tree node), and the lock never holds
more ranges than there are worker LWPs, because only workers run
screens and a screen holds at most one mapped section at a time
(``tests/test_core_flashvisor.py`` pins that bound on serving and batch
runs).  A scan over a handful of tuples is both the simplest and the
fastest search at that size.

The validated :class:`LockedRange` record is built only where a caller
sees one: a conflict report, :meth:`RangeLock.acquire` and
:meth:`RangeLock.ranges`.  A granted ``try_acquire`` (once per mapped
data section) checks its arguments inline instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

READ = "read"
WRITE = "write"


@dataclass
class LockedRange:
    """One locked interval of flash page groups, inclusive of both ends."""

    start: int
    end: int
    mode: str
    owner: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError("invalid range")
        if self.mode not in (READ, WRITE):
            raise ValueError(f"unknown lock mode: {self.mode!r}")


class RangeLockConflict(Exception):
    """Raised (or returned as a denial) when a lock request conflicts."""

    def __init__(self, requested: LockedRange, conflicting: LockedRange):
        super().__init__(
            f"range [{requested.start}, {requested.end}] ({requested.mode}) "
            f"conflicts with [{conflicting.start}, {conflicting.end}] "
            f"({conflicting.mode}) held by kernel {conflicting.owner}")
        self.requested = requested
        self.conflicting = conflicting


class RangeLock:
    """Flashvisor's range lock: a list of held ranges, scanned in full."""

    def __init__(self) -> None:
        # (start, end, mode, owner), in acquisition order.
        self._held: List[Tuple[int, int, str, int]] = []

    def __len__(self) -> int:
        return len(self._held)

    def try_acquire(self, start: int, end: int, mode: str,
                    owner: int) -> Optional[RangeLockConflict]:
        """Attempt to lock [start, end]; returns a conflict or None on success.

        Read/read overlaps are permitted (even between different kernels);
        any overlap involving a write is a conflict, matching the paper's
        description of the protection rule.  Raises ``ValueError`` for
        the arguments :class:`LockedRange` rejects.
        """
        if start < 0 or end < start:
            raise ValueError("invalid range")
        if mode != READ and mode != WRITE:
            raise ValueError(f"unknown lock mode: {mode!r}")
        read = mode == READ
        for s, e, m, o in self._held:
            if s <= end and start <= e and not (read and m == READ):
                return RangeLockConflict(LockedRange(start, end, mode, owner),
                                         LockedRange(s, e, m, o))
        self._held.append((start, end, mode, owner))
        return None

    def acquire(self, start: int, end: int, mode: str, owner: int) -> LockedRange:
        """Lock [start, end] or raise :class:`RangeLockConflict`."""
        conflict = self.try_acquire(start, end, mode, owner)
        if conflict is not None:
            raise conflict
        return LockedRange(start=start, end=end, mode=mode, owner=owner)

    def release(self, start: int, end: int, owner: int) -> bool:
        """Release the lock previously acquired on [start, end] by ``owner``.

        Among duplicate read locks of one owner, the earliest-acquired
        one goes.  Returns False when ``owner`` holds no such range.
        """
        held = self._held
        for index, (s, e, _mode, o) in enumerate(held):
            if s == start and e == end and o == owner:
                del held[index]
                return True
        return False
