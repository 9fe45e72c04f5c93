"""Range lock protecting flash-mapped data sections (Section 4.3).

Flashvisor does not tag every page-table entry with an owner; instead it
keeps an augmented red-black tree of locked page ranges.  A request to map
a data section for *reads* is blocked while any overlapping range is locked
for *writes*, and a *write* mapping is blocked while any overlapping range
is locked at all (read or write) — i.e. multiple concurrent readers are
allowed, writers are exclusive.

The tree is keyed by the start page number of the range; each node is
augmented with the maximum end page in its subtree, so a conflict search
prunes every subtree that ends before the request starts or starts after
it ends.  Releases find their node through an ``(start, end, owner)``
index and unlink it with a red-black delete: no operation walks the
whole tree.

Tree nodes hold the range's fields as plain slots.  The validated
:class:`LockedRange` record is built only where a caller sees one: a
conflict report, :meth:`RangeLock.acquire`, :meth:`RangeLock.ranges` and
:meth:`RangeLock.conflicts_with`.  A granted ``try_acquire`` (once per
mapped data section) checks its arguments inline instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

READ = "read"
WRITE = "write"

RED = True
BLACK = False


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

    def overlaps(self, start: int, end: int) -> bool:
        return self.start <= end and start <= self.end


class _Node:
    __slots__ = ("start", "end", "mode", "owner", "left", "right", "parent",
                 "color", "max_end")

    def __init__(self, start: int, end: int, mode: str, owner: int):
        self.start = start
        self.end = end
        self.mode = mode
        self.owner = owner
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.parent: Optional[_Node] = None
        self.color = RED
        self.max_end = end

    def record(self) -> LockedRange:
        return LockedRange(self.start, self.end, self.mode, self.owner)


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
    """Interval red-black tree implementing Flashvisor's range lock."""

    def __init__(self) -> None:
        self._root: Optional[_Node] = None
        self._size = 0
        # (start, end, owner) -> the nodes holding that exact range.
        # More than one only for repeated read locks of one owner.
        self._index: Dict[Tuple[int, int, int], List[_Node]] = {}

    # -- public API -------------------------------------------------------
    def __len__(self) -> int:
        return self._size

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
        conflict = self._find_conflict(start, end, mode == READ)
        if conflict is not None:
            return RangeLockConflict(
                LockedRange(start, end, mode, owner), conflict.record())
        node = self._insert(_Node(start, end, mode, owner))
        key = (start, end, owner)
        held = self._index.get(key)
        if held is None:
            self._index[key] = [node]
        else:
            held.append(node)
        return None

    def acquire(self, start: int, end: int, mode: str, owner: int) -> LockedRange:
        """Lock [start, end] or raise :class:`RangeLockConflict`."""
        conflict = self.try_acquire(start, end, mode, owner)
        if conflict is not None:
            raise conflict
        return LockedRange(start=start, end=end, mode=mode, owner=owner)

    def release(self, start: int, end: int, owner: int) -> bool:
        """Release the lock previously acquired on [start, end] by ``owner``."""
        key = (start, end, owner)
        nodes = self._index.get(key)
        if nodes is None:
            return False
        # The earliest-acquired duplicate: the first in start order, as
        # a scan of the tree would find it.
        node = nodes.pop(0)
        if not nodes:
            del self._index[key]
        self._delete(node)
        return True

    def release_owner(self, owner: int) -> int:
        """Release every range held by ``owner``; returns how many."""
        victims = [r for r in self.ranges() if r.owner == owner]
        for locked in victims:
            self.release(locked.start, locked.end, owner)
        return len(victims)

    def ranges(self) -> List[LockedRange]:
        """All currently locked ranges, in start order."""
        return [node.record() for node in self._in_order(self._root)]

    def conflicts_with(self, start: int, end: int, mode: str) -> List[LockedRange]:
        """All locked ranges that would block a [start, end] ``mode`` request."""
        return [node.record() for node in self._in_order(self._root)
                if node.start <= end and start <= node.end
                and not (node.mode == READ and mode == READ)]

    # -- conflict search ------------------------------------------------------
    def _find_conflict(self, start: int, end: int,
                       read: bool) -> Optional[_Node]:
        """Some held range that blocks [start, end], or None.

        Pruned interval search: a subtree whose ``max_end`` is below
        ``start`` cannot overlap, and neither can a node that starts
        after ``end`` nor its right subtree.  A write stops at the first
        overlap; a read walks past overlapping readers, so it costs
        O((readers + 1) log n).
        """
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            if node.max_end < start:
                continue
            if node.start <= end:
                if node.end >= start and not (read and node.mode == READ):
                    return node
                if node.right is not None:
                    stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)
        return None

    # -- red-black machinery -----------------------------------------------
    def _in_order(self, node: Optional[_Node]) -> Iterator[_Node]:
        stack: List[_Node] = []
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node
            node = node.right

    def _insert(self, new: _Node) -> _Node:
        start = new.start
        parent, node = None, self._root
        while node is not None:
            parent = node
            node = node.left if start < node.start else node.right
        new.parent = parent
        if parent is None:
            self._root = new
        elif start < parent.start:
            parent.left = new
        else:
            parent.right = new
        self._size += 1
        self._update_max_up(new)
        self._fix_insert(new)
        return new

    def _transplant(self, old: _Node, new: Optional[_Node]) -> None:
        """Hang ``new`` where ``old`` hangs from its parent."""
        parent = old.parent
        if parent is None:
            self._root = new
        elif old is parent.left:
            parent.left = new
        else:
            parent.right = new
        if new is not None:
            new.parent = parent

    def _delete(self, node: _Node) -> None:
        """Red-black delete (CLRS), keeping ``max_end`` exact.

        The in-order sequence of the remaining nodes is unchanged, so
        ranges with equal starts keep their acquisition order.
        """
        removed_color = node.color
        if node.left is None:
            child, parent = node.right, node.parent
            self._transplant(node, child)
        elif node.right is None:
            child, parent = node.left, node.parent
            self._transplant(node, child)
        else:
            successor = node.right
            while successor.left is not None:
                successor = successor.left
            removed_color = successor.color
            child = successor.right
            if successor.parent is node:
                parent = successor
            else:
                parent = successor.parent
                self._transplant(successor, child)
                successor.right = node.right
                successor.right.parent = successor
            self._transplant(node, successor)
            successor.left = node.left
            successor.left.parent = successor
            successor.color = node.color
        self._size -= 1
        self._update_max_up(parent)
        if removed_color is BLACK:
            self._fix_delete(child, parent)

    def _fix_delete(self, node: Optional[_Node],
                    parent: Optional[_Node]) -> None:
        # ``node`` carries an extra black; None leaves count as black.
        # Rotations keep each rotated subtree's range set, so they only
        # refresh the two rotated nodes' ``max_end``.
        while node is not self._root and (node is None
                                          or node.color is BLACK):
            if node is parent.left:
                sibling = parent.right
                if sibling.color is RED:
                    sibling.color = BLACK
                    parent.color = RED
                    self._rotate_left(parent)
                    sibling = parent.right
                if (sibling.left is None or sibling.left.color is BLACK) \
                        and (sibling.right is None
                             or sibling.right.color is BLACK):
                    sibling.color = RED
                    node, parent = parent, parent.parent
                    continue
                if sibling.right is None or sibling.right.color is BLACK:
                    sibling.left.color = BLACK
                    sibling.color = RED
                    self._rotate_right(sibling)
                    sibling = parent.right
                sibling.color = parent.color
                parent.color = BLACK
                sibling.right.color = BLACK
                self._rotate_left(parent)
            else:
                sibling = parent.left
                if sibling.color is RED:
                    sibling.color = BLACK
                    parent.color = RED
                    self._rotate_right(parent)
                    sibling = parent.left
                if (sibling.left is None or sibling.left.color is BLACK) \
                        and (sibling.right is None
                             or sibling.right.color is BLACK):
                    sibling.color = RED
                    node, parent = parent, parent.parent
                    continue
                if sibling.left is None or sibling.left.color is BLACK:
                    sibling.right.color = BLACK
                    sibling.color = RED
                    self._rotate_left(sibling)
                    sibling = parent.left
                sibling.color = parent.color
                parent.color = BLACK
                sibling.left.color = BLACK
                self._rotate_right(parent)
            node = self._root
        if node is not None:
            node.color = BLACK

    def _rotate_left(self, x: _Node) -> None:
        y = x.right
        x.right = y.left
        if y.left is not None:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is None:
            self._root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y
        self._update_max(x)
        self._update_max(y)

    def _rotate_right(self, x: _Node) -> None:
        y = x.left
        x.left = y.right
        if y.right is not None:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is None:
            self._root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y
        self._update_max(x)
        self._update_max(y)

    def _update_max(self, node: _Node) -> None:
        node.max_end = node.end
        if node.left is not None:
            node.max_end = max(node.max_end, node.left.max_end)
        if node.right is not None:
            node.max_end = max(node.max_end, node.right.max_end)

    def _update_max_up(self, node: Optional[_Node]) -> None:
        while node is not None:
            self._update_max(node)
            node = node.parent

    def _fix_insert(self, node: _Node) -> None:
        while node.parent is not None and node.parent.color is RED:
            grand = node.parent.parent
            if grand is None:
                break
            if node.parent is grand.left:
                uncle = grand.right
                if uncle is not None and uncle.color is RED:
                    node.parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    node = grand
                else:
                    if node is node.parent.right:
                        node = node.parent
                        self._rotate_left(node)
                    node.parent.color = BLACK
                    grand.color = RED
                    self._rotate_right(grand)
            else:
                uncle = grand.left
                if uncle is not None and uncle.color is RED:
                    node.parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    node = grand
                else:
                    if node is node.parent.left:
                        node = node.parent
                        self._rotate_right(node)
                    node.parent.color = BLACK
                    grand.color = RED
                    self._rotate_left(grand)
        if self._root is not None:
            self._root.color = BLACK
        self._update_max_up(node)

    # -- invariants (used by property-based tests) ---------------------------
    def check_invariants(self) -> None:
        """Validate BST order, max-end augmentation, and red-black rules."""
        def black_height(node: Optional[_Node]) -> int:
            if node is None:
                return 1
            if node.color is RED:
                for child in (node.left, node.right):
                    if child is not None and child.color is RED:
                        raise AssertionError("red node with red child")
            left = black_height(node.left)
            right = black_height(node.right)
            if left != right:
                raise AssertionError("black heights differ")
            expected_max = node.end
            for child in (node.left, node.right):
                if child is not None:
                    expected_max = max(expected_max, child.max_end)
            if node.max_end != expected_max:
                raise AssertionError("max_end augmentation is stale")
            if node.left is not None and node.left.start > node.start:
                raise AssertionError("BST order violated (left)")
            if node.right is not None and node.right.start < node.start:
                raise AssertionError("BST order violated (right)")
            return left + (0 if node.color is RED else 1)

        if self._root is not None and self._root.color is RED:
            raise AssertionError("root must be black")
        if self._root is not None and self._root.parent is not None:
            raise AssertionError("root has a parent")
        black_height(self._root)
        nodes = list(self._in_order(self._root))
        for node in nodes:
            for child in (node.left, node.right):
                if child is not None and child.parent is not node:
                    raise AssertionError("stale parent pointer")
        if len(nodes) != self._size:
            raise AssertionError("size counter is stale")
        indexed = {id(node) for held in self._index.values() for node in held}
        if indexed != {id(node) for node in nodes} \
                or sum(map(len, self._index.values())) != len(nodes):
            raise AssertionError("release index out of sync with the tree")
        for (start, end, owner), held in self._index.items():
            for node in held:
                if (node.start, node.end, node.owner) != (start, end, owner):
                    raise AssertionError("release index key mismatch")
