"""Unit and property-based tests for Flashvisor's range lock."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.range_lock import (
    READ,
    WRITE,
    LockedRange,
    RangeLock,
    RangeLockConflict,
)


# --------------------------------------------------------------------------- #
# Basic semantics                                                              #
# --------------------------------------------------------------------------- #
def test_read_read_overlap_allowed():
    lock = RangeLock()
    assert lock.try_acquire(0, 10, READ, owner=1) is None
    assert lock.try_acquire(5, 15, READ, owner=2) is None
    assert len(lock) == 2


def test_write_blocks_overlapping_read():
    lock = RangeLock()
    lock.acquire(0, 10, WRITE, owner=1)
    conflict = lock.try_acquire(5, 15, READ, owner=2)
    assert conflict is not None
    assert conflict.conflicting.owner == 1


def test_read_blocks_overlapping_write():
    lock = RangeLock()
    lock.acquire(0, 10, READ, owner=1)
    assert lock.try_acquire(10, 20, WRITE, owner=2) is not None
    # Disjoint write is fine.
    assert lock.try_acquire(11, 20, WRITE, owner=2) is None


def test_write_write_overlap_blocked():
    lock = RangeLock()
    lock.acquire(0, 10, WRITE, owner=1)
    with pytest.raises(RangeLockConflict):
        lock.acquire(3, 4, WRITE, owner=2)


def test_release_unblocks_waiters():
    lock = RangeLock()
    lock.acquire(0, 10, WRITE, owner=1)
    assert lock.try_acquire(0, 10, WRITE, owner=2) is not None
    assert lock.release(0, 10, owner=1)
    assert lock.try_acquire(0, 10, WRITE, owner=2) is None


def test_release_requires_exact_match():
    lock = RangeLock()
    lock.acquire(0, 10, READ, owner=1)
    assert not lock.release(0, 9, owner=1)
    assert not lock.release(0, 10, owner=2)
    assert lock.release(0, 10, owner=1)
    assert len(lock) == 0


def test_release_owner_drops_everything_held_by_kernel():
    lock = RangeLock()
    lock.acquire(0, 5, READ, owner=7)
    lock.acquire(10, 15, WRITE, owner=7)
    lock.acquire(20, 25, READ, owner=8)
    assert lock.release_owner(7) == 2
    assert len(lock) == 1
    assert lock.ranges()[0].owner == 8


def test_invalid_range_and_mode_rejected():
    with pytest.raises(ValueError):
        LockedRange(start=5, end=4, mode=READ, owner=0)
    with pytest.raises(ValueError):
        LockedRange(start=0, end=1, mode="exclusive", owner=0)


@pytest.mark.parametrize("start, end, mode, message", [
    (5, 4, READ, "invalid range"),
    (-1, 3, WRITE, "invalid range"),
    (0, 1, "exclusive", "unknown lock mode"),
])
def test_acquire_entry_points_validate_on_an_empty_lock(start, end, mode,
                                                        message):
    # The hot path checks its arguments inline instead of building a
    # LockedRange; the errors must be the record's.
    with pytest.raises(ValueError, match=message):
        LockedRange(start=start, end=end, mode=mode, owner=0)
    lock = RangeLock()
    with pytest.raises(ValueError, match=message):
        lock.try_acquire(start, end, mode, owner=0)
    with pytest.raises(ValueError, match=message):
        lock.acquire(start, end, mode, owner=0)
    assert len(lock) == 0
    lock.check_invariants()


def test_conflicts_report_locked_range_records():
    lock = RangeLock()
    held = lock.acquire(0, 10, WRITE, owner=1)
    assert held == LockedRange(0, 10, WRITE, 1)
    conflict = lock.try_acquire(5, 15, READ, owner=2)
    assert isinstance(conflict, RangeLockConflict)
    assert conflict.requested == LockedRange(5, 15, READ, 2)
    assert conflict.conflicting == LockedRange(0, 10, WRITE, 1)
    assert "held by kernel 1" in str(conflict)
    with pytest.raises(RangeLockConflict) as raised:
        lock.acquire(10, 12, WRITE, owner=3)
    assert raised.value.conflicting == held
    assert lock.ranges() == [held]
    assert lock.conflicts_with(0, 0, READ) == [held]


def test_conflicts_with_lists_blocking_ranges():
    lock = RangeLock()
    lock.acquire(0, 10, WRITE, owner=1)
    lock.acquire(20, 30, READ, owner=2)
    blocking = lock.conflicts_with(5, 25, READ)
    owners = {r.owner for r in blocking}
    assert 1 in owners          # the write blocks a read
    assert 2 not in owners      # read/read never blocks


def test_adjacent_ranges_do_not_conflict():
    lock = RangeLock()
    lock.acquire(0, 9, WRITE, owner=1)
    assert lock.try_acquire(10, 19, WRITE, owner=2) is None


# --------------------------------------------------------------------------- #
# Property-based tests: red-black + interval invariants                        #
# --------------------------------------------------------------------------- #
range_strategy = st.tuples(st.integers(min_value=0, max_value=500),
                           st.integers(min_value=0, max_value=50),
                           st.sampled_from([READ, WRITE]))


@settings(max_examples=100, deadline=None)
@given(st.lists(range_strategy, min_size=1, max_size=40))
def test_tree_invariants_hold_after_arbitrary_inserts(ranges):
    lock = RangeLock()
    for owner, (start, length, mode) in enumerate(ranges):
        lock.try_acquire(start, start + length, mode, owner)
        lock.check_invariants()
    starts = [r.start for r in lock.ranges()]
    assert starts == sorted(starts)


@settings(max_examples=100, deadline=None)
@given(st.lists(range_strategy, min_size=1, max_size=30),
       st.randoms(use_true_random=False))
def test_granted_locks_never_conflict(ranges, rng):
    """Whatever the request order, granted locks are mutually compatible."""
    lock = RangeLock()
    granted = []
    for owner, (start, length, mode) in enumerate(ranges):
        if lock.try_acquire(start, start + length, mode, owner) is None:
            granted.append(LockedRange(start, start + length, mode, owner))
    for i, a in enumerate(granted):
        for b in granted[i + 1:]:
            if a.overlaps(b.start, b.end):
                assert a.mode == READ and b.mode == READ


@settings(max_examples=60, deadline=None)
@given(st.lists(range_strategy, min_size=1, max_size=25))
def test_release_restores_acquirability(ranges):
    lock = RangeLock()
    acquired = []
    for owner, (start, length, mode) in enumerate(ranges):
        if lock.try_acquire(start, start + length, mode, owner) is None:
            acquired.append((start, start + length, mode, owner))
    for start, end, _mode, owner in acquired:
        assert lock.release(start, end, owner)
    assert len(lock) == 0
    # After releasing everything, any single range is acquirable again.
    for start, end, mode, owner in acquired:
        assert lock.try_acquire(start, end, mode, owner) is None
        lock.release(start, end, owner)


# --------------------------------------------------------------------------- #
# Differential test against a brute-force list model                           #
# --------------------------------------------------------------------------- #
class ListModel:
    """The range lock as a plain list, sorted by start and stable in
    acquisition order among equal starts; every query is a full scan."""

    def __init__(self):
        self.held = []          # (start, end, mode, owner)

    def try_acquire(self, start, end, mode, owner) -> bool:
        for s, e, m, _o in self.held:
            if s <= end and start <= e and not (m == READ and mode == READ):
                return False
        position = sum(1 for s, *_rest in self.held if s <= start)
        self.held.insert(position, (start, end, mode, owner))
        return True

    def release(self, start, end, owner) -> bool:
        for index, (s, e, _m, o) in enumerate(self.held):
            if (s, e, o) == (start, end, owner):
                del self.held[index]
                return True
        return False


# Read-heavy (reads share ranges, so trees grow deep enough to exercise
# every delete-fixup case) over a narrow key space (equal starts and
# repeated (start, end, owner) read locks are common).
operation = st.tuples(
    st.sampled_from(["acquire"] * 3 + ["release", "release_held"]),
    st.integers(min_value=0, max_value=24),     # start
    st.integers(min_value=0, max_value=3),      # length
    st.sampled_from([READ, READ, READ, WRITE]),
    st.integers(min_value=0, max_value=2),      # owner
    st.integers(min_value=0, max_value=1000))   # which held range


@settings(max_examples=200, deadline=None)
@given(st.lists(operation, min_size=1, max_size=150))
@example([("acquire", 5, 2, READ, 1, 0), ("acquire", 5, 4, READ, 2, 0),
          ("acquire", 5, 2, READ, 1, 0), ("release", 5, 2, READ, 1, 0)])
def test_range_lock_matches_list_model(operations):
    lock, model = RangeLock(), ListModel()
    for kind, start, length, mode, owner, pick in operations:
        if kind == "acquire":
            granted = lock.try_acquire(start, start + length, mode,
                                       owner) is None
            assert granted == model.try_acquire(start, start + length,
                                                mode, owner)
        else:
            if kind == "release_held" and model.held:
                start, end, _mode, owner = \
                    model.held[pick % len(model.held)]
            else:
                end = start + length
            assert lock.release(start, end, owner) \
                == model.release(start, end, owner)
        lock.check_invariants()
        assert len(lock) == len(model.held)
        assert [(r.start, r.end, r.mode, r.owner)
                for r in lock.ranges()] == model.held
