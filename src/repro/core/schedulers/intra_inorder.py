"""In-order intra-kernel scheduling (Section 4.2, Figure 7b).

Kernels are processed in arrival order; the microblocks of the kernel at
the head of the queue execute serially, but the screens *within* the
current microblock are spread across every free worker LWP.  This shortens
the latency of an individual kernel (screen-level parallelism) at the cost
of leaving LWPs idle whenever the current microblock is serial or has fewer
screens than there are workers — the limitation the out-of-order scheduler
removes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ...policy import register_policy
from ..execution_chain import KernelChain
from ..kernel import Kernel
from .base import Scheduler, WorkItem


@register_policy("scheduler")
class InOrderIntraKernelScheduler(Scheduler):
    """``IntraIo`` — screens of the head kernel's current microblock only."""

    name = "IntraIo"
    dispatch_overhead_s = 3e-6

    def __init__(self, num_workers: int):
        super().__init__(num_workers)
        self._pending: Deque[Kernel] = deque()
        self.dispatches = 0

    def _on_offload(self, kernel: Kernel) -> None:
        self._pending.append(kernel)

    def _head_chain(self) -> Optional[KernelChain]:
        while self._pending:
            chain = self.chain.chain_for_kernel(self._pending[0])
            if chain.complete:
                self._pending.popleft()
                continue
            return chain
        return None

    def next_work(self, worker_index: int) -> Optional[WorkItem]:
        chain = self._head_chain()
        if chain is None:
            return None
        node = chain.current_node()
        screen = node.first_pending() if node is not None else None
        if screen is None:
            # The head kernel's current microblock is fully dispatched but
            # not yet complete; in-order scheduling refuses to look further.
            return None
        self.dispatches += 1
        return self.single_screen_item(chain, node, screen)

    @property
    def pending_kernels(self) -> int:
        return sum(1 for k in self._pending
                   if not self.chain.chain_for_kernel(k).complete)
