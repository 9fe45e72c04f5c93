"""Scheduler interface shared by the four FlashAbacus policies.

A scheduler owns the multi-app execution chain and hands *work items* to
worker LWPs.  A work item is a sequence of (microblock node, screen node)
pairs belonging to one kernel chain that the worker executes in order:

* the inter-kernel schedulers hand out whole kernels (every screen of
  every microblock, in order) — one instruction stream per LWP;
* the intra-kernel schedulers hand out individual screens.

Workers pull work with :meth:`Scheduler.next_work` and report back with
:meth:`Scheduler.notify_complete`; the execution engine takes care of chain
status updates and timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..execution_chain import (
    KernelChain,
    MicroblockNode,
    MultiAppExecutionChain,
    ScreenNode,
)
from ..kernel import Kernel


@dataclass
class WorkItem:
    """A unit of work assigned to one worker LWP."""

    chain: KernelChain
    units: List[Tuple[MicroblockNode, ScreenNode]]
    kind: str = "screen"            # "kernel" for whole-kernel items

    def __len__(self) -> int:
        return len(self.units)


class Scheduler:
    """Base class: owns the chain, tracks offloaded kernels."""

    #: Human-readable name used in reports ("InterSt", "IntraO3", ...).
    name = "base"
    #: Extra Flashvisor scheduling/IPC latency charged per dispatched item.
    dispatch_overhead_s = 0.0

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.chain = MultiAppExecutionChain()
        self._offloaded: List[Kernel] = []

    # -- offload ------------------------------------------------------------
    def offload(self, kernels: Sequence[Kernel], now: float = 0.0) -> None:
        """Register newly downloaded kernels with the scheduler."""
        for kernel in kernels:
            self.chain.add_kernel(kernel, now)
            self._offloaded.append(kernel)
            self._on_offload(kernel)

    def _on_offload(self, kernel: Kernel) -> None:
        """Hook for subclasses to maintain their dispatch queues."""

    # -- dispatch --------------------------------------------------------------
    def next_work(self, worker_index: int) -> Optional[WorkItem]:
        """Return the next work item for ``worker_index`` (None if idle)."""
        raise NotImplementedError

    def notify_complete(self, worker_index: int, item: WorkItem,
                        now: float) -> None:
        """Called by the engine when a work item finishes."""

    # -- status ---------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once every offloaded kernel has completed."""
        return bool(self._offloaded) and self.chain.complete

    # -- helpers for subclasses ---------------------------------------------
    @staticmethod
    def whole_kernel_item(chain: KernelChain) -> WorkItem:
        """Build a work item covering every screen of ``chain`` in order."""
        units: List[Tuple[MicroblockNode, ScreenNode]] = []
        for node in chain.nodes:
            for screen in node.screens:
                screen.claimed = True
                units.append((node, screen))
        return WorkItem(chain=chain, units=units, kind="kernel")

    @staticmethod
    def single_screen_item(chain: KernelChain, node: MicroblockNode,
                           screen: ScreenNode) -> WorkItem:
        screen.claimed = True
        return WorkItem(chain=chain, units=[(node, screen)], kind="screen")
