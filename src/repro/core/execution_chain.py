"""Multi-app execution chain (Figure 8 of the paper).

The chain records, per application, the ordered list of microblock nodes
and for each node the per-screen execution status (which LWP ran it and
whether it completed).  The schedulers use the chain to decide which
screens are *ready*: no screen of microblock ``i+1`` may start before every
screen of microblock ``i`` in the same kernel has completed — this is the
only data-dependency rule FlashAbacus enforces (dependencies only exist
among the microblocks within an application's kernel, Section 4.2).

Completion state is tracked incrementally: every ``mark_done`` bumps a
done-counter on the screen's node and chain, completed chains retire
from a per-app incomplete registry and from an age-ordered list, and
``current_node`` advances a monotonic cursor.  Serving runs offload one
kernel per request, so without retirement every scheduler poll
re-scanned every chain ever completed — O(requests²) over a run (it
dominated cluster-run profiles).  All queries return exactly what the
full scans returned: screens only become ready in a chain's current
node and a screen never returns to ready once claimed or started, so
completion is monotone per node, chain and app, and a per-node cursor
to the first ready screen only ever advances.  A chain drops its
microblock nodes once its last screen is done; from then on it keeps
only ``offloaded_at`` and ``completed_at``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple

from .kernel import Kernel, Microblock, Screen


class ScreenStatus(Enum):
    """Lifecycle of one screen inside the chain."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"


@dataclass
class ScreenNode:
    """Per-screen bookkeeping inside a microblock node."""

    screen: Screen
    status: ScreenStatus = ScreenStatus.PENDING
    lwp_id: Optional[int] = None
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    #: Set as soon as a scheduler hands the screen to a worker, before the
    #: worker has actually started it, so no other worker can claim it.
    claimed: bool = False
    #: Back-reference to the owning node (set by the node), so
    #: ``mark_done`` can bump the node's done-counter without a scan.
    parent: Optional["MicroblockNode"] = field(default=None, repr=False,
                                               compare=False)


@dataclass
class MicroblockNode:
    """One node of the chain: a microblock and the status of its screens."""

    kernel: Kernel
    microblock: Microblock
    screens: List[ScreenNode] = field(default_factory=list)
    #: Count of DONE screens, maintained by ``mark_done`` (all status
    #: transitions go through the chain API, so it cannot go stale).
    _done: int = field(default=0, init=False, repr=False, compare=False)
    #: Index of the first possibly-ready (pending, unclaimed) screen.
    _ready_cursor: int = field(default=0, init=False, repr=False,
                               compare=False)

    def __post_init__(self) -> None:
        if not self.screens:
            self.screens = [ScreenNode(screen=s)
                            for s in self.microblock.screens]
        self._done = sum(1 for s in self.screens
                         if s.status is ScreenStatus.DONE)
        for node in self.screens:
            node.parent = self

    @property
    def complete(self) -> bool:
        return self._done >= len(self.screens)

    @property
    def started(self) -> bool:
        return any(s.status is not ScreenStatus.PENDING for s in self.screens)

    def first_pending(self) -> Optional[ScreenNode]:
        """The first pending, unclaimed screen, or None.

        Amortized O(1): a screen never becomes ready again once claimed
        or started, so the cursor skips it for good.
        """
        screens = self.screens
        cursor = self._ready_cursor
        while cursor < len(screens):
            screen = screens[cursor]
            if screen.status is ScreenStatus.PENDING and not screen.claimed:
                self._ready_cursor = cursor
                return screen
            cursor += 1
        self._ready_cursor = cursor
        return None


@dataclass
class KernelChain:
    """The ordered microblock nodes of one kernel."""

    kernel: Kernel
    nodes: List[MicroblockNode] = field(default_factory=list)
    offloaded_at: float = 0.0
    completed_at: Optional[float] = None
    #: Count of DONE screens across all nodes (``mark_done`` maintains
    #: it) and the index of the first possibly-incomplete node.  Nodes
    #: before the cursor are complete; completion is monotone, so the
    #: cursor only ever advances.
    _done: int = field(default=0, init=False, repr=False, compare=False)
    _total: int = field(default=0, init=False, repr=False, compare=False)
    _cursor: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.nodes:
            self.nodes = [MicroblockNode(kernel=self.kernel, microblock=m)
                          for m in self.kernel.microblocks]
        self._done = sum(node._done for node in self.nodes)
        self._total = sum(len(node.screens) for node in self.nodes)

    @property
    def complete(self) -> bool:
        return self._done >= self._total

    def current_node(self) -> Optional[MicroblockNode]:
        """The earliest node that is not yet complete (None when done)."""
        nodes = self.nodes
        cursor = self._cursor
        while cursor < len(nodes):
            node = nodes[cursor]
            if not node.complete:
                self._cursor = cursor
                return node
            cursor += 1
        self._cursor = cursor
        return None

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.offloaded_at


class MultiAppExecutionChain:
    """Root data structure: one list of kernel chains per application."""

    def __init__(self) -> None:
        self._per_app: Dict[int, List[KernelChain]] = {}
        self._by_kernel: Dict[int, KernelChain] = {}
        # Incomplete chains per app, in insertion order (dicts keyed by
        # object id: O(1) retirement in mark_done without disturbing
        # order), and the sorted ids of the apps that have any.
        # Scheduler polls iterate these instead of every chain ever
        # offloaded.
        self._incomplete: Dict[int, Dict[int, KernelChain]] = {}
        self._apps: List[int] = []
        self._incomplete_count = 0
        # Incomplete chains as (offloaded_at, kernel_id, seq, chain),
        # sorted: oldest_ready() walks them oldest first.  ``seq`` keeps
        # the order total (and insertion-stable) should a kernel be
        # offloaded twice.
        self._by_age: List[Tuple[float, int, int, KernelChain]] = []
        self._age_key: Dict[int, Tuple[float, int, int]] = {}
        self._seq = 0

    # -- construction ----------------------------------------------------------
    def add_kernel(self, kernel: Kernel, now: float = 0.0) -> KernelChain:
        chain = KernelChain(kernel=kernel, offloaded_at=now)
        app_id = kernel.app_id
        self._per_app.setdefault(app_id, []).append(chain)
        self._by_kernel[kernel.kernel_id] = chain
        if not chain.complete:    # zero-screen kernels are born complete
            app = self._incomplete.get(app_id)
            if app is None:
                app = self._incomplete[app_id] = {}
                insort(self._apps, app_id)
            app[id(chain)] = chain
            self._incomplete_count += 1
            self._seq += 1
            key = (now, kernel.kernel_id, self._seq)
            self._age_key[id(chain)] = key
            insort(self._by_age, key + (chain,))
        return chain

    # -- lookup -----------------------------------------------------------------
    def apps(self) -> List[int]:
        return sorted(self._per_app)

    def chains_for_app(self, app_id: int) -> List[KernelChain]:
        return list(self._per_app.get(app_id, []))

    def chain_for_kernel(self, kernel: Kernel) -> KernelChain:
        return self._by_kernel[kernel.kernel_id]

    def all_chains(self) -> Iterator[KernelChain]:
        for app_id in self.apps():
            yield from self._per_app[app_id]

    # -- status ---------------------------------------------------------------
    @property
    def complete(self) -> bool:
        return self._incomplete_count == 0

    def incomplete_chains(self) -> Iterator[KernelChain]:
        """Incomplete chains in :meth:`all_chains` order.

        Exactly the subsequence of :meth:`all_chains` whose chains are
        not yet complete — completed chains would contribute nothing to
        a readiness scan, so iterating this instead is behaviorally
        identical and O(live work) rather than O(history).
        """
        for app_id in self._apps:
            yield from self._incomplete[app_id].values()

    def first_incomplete(self) -> Optional[KernelChain]:
        """The first incomplete chain in :meth:`all_chains` order."""
        if not self._apps:
            return None
        return next(iter(self._incomplete[self._apps[0]].values()))

    def oldest_ready(self) -> Optional[Tuple[KernelChain, MicroblockNode,
                                             ScreenNode]]:
        """The ready screen that sorts first by ``(offloaded_at,
        kernel_id, microblock.index)``, or None when nothing is ready.

        Equal to the head of :meth:`ready_screens` stably sorted by that
        key (each chain exposes only its current node, so the key picks
        the chain and node order picks the screen), without building or
        sorting the list: the incomplete chains are kept in age order
        and each node's cursor finds its first ready screen.
        """
        for entry in self._by_age:
            chain = entry[3]
            node = chain.current_node()
            if node is not None:
                screen = node.first_pending()
                if screen is not None:
                    return chain, node, screen
        return None

    def ready_screens(self) -> List[Tuple[KernelChain, MicroblockNode, ScreenNode]]:
        """All screens that may start now, across every app and kernel."""
        ready = []
        for chain in self.incomplete_chains():
            node = chain.current_node()
            if node is None:
                continue
            for screen in node.screens:
                if screen.status is ScreenStatus.PENDING \
                        and not screen.claimed:
                    ready.append((chain, node, screen))
        return ready

    def mark_running(self, screen_node: ScreenNode, lwp_id: int,
                     now: float) -> None:
        if screen_node.status is not ScreenStatus.PENDING:
            raise ValueError("screen is not pending")
        screen_node.status = ScreenStatus.RUNNING
        screen_node.lwp_id = lwp_id
        screen_node.started_at = now

    def mark_done(self, chain: KernelChain, screen_node: ScreenNode,
                  now: float) -> None:
        if screen_node.status is not ScreenStatus.RUNNING:
            raise ValueError("screen is not running")
        screen_node.status = ScreenStatus.DONE
        screen_node.completed_at = now
        parent = screen_node.parent
        if parent is not None:
            parent._done += 1
        chain._done += 1
        if chain.complete:
            if chain.completed_at is None:
                chain.completed_at = now
            # A complete chain is read only for its two timestamps
            # (kernel_latencies, completion_times): release its screen
            # graph instead of keeping it for the rest of the run.
            chain.nodes = []
            app_id = chain.kernel.app_id
            app = self._incomplete.get(app_id)
            if app is not None and app.pop(id(chain), None) is not None:
                self._incomplete_count -= 1
                if not app:
                    del self._incomplete[app_id]
                    self._apps.remove(app_id)
                key = self._age_key.pop(id(chain))
                by_age = self._by_age
                del by_age[bisect_left(by_age, key)]

    # -- metrics --------------------------------------------------------------
    def kernel_latencies(self) -> List[float]:
        return [chain.latency for chain in self.all_chains()
                if chain.latency is not None]

    def completion_times(self) -> List[float]:
        return sorted(chain.completed_at for chain in self.all_chains()
                      if chain.completed_at is not None)
