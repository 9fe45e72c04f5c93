"""Out-of-order intra-kernel scheduling (Section 4.2, Figure 7c).

The key observation of the paper: data dependencies only exist among the
microblocks *within* one kernel.  Whenever an LWP becomes free, this
scheduler may therefore "borrow" a ready screen from any other kernel or
application — the current microblock of any offloaded kernel — instead of
idling until the head kernel advances.  The multi-app execution chain
guarantees that no screen starts before every screen of the previous
microblock in the same kernel has completed.

Borrowing keeps all LWPs busy (maximizing utilization and throughput) and
shortens straggler kernels by spreading their screens over several LWPs.
The price is the Flashvisor/worker IPC for every dispatched screen and the
scheduling work itself, which the engine charges via
``dispatch_overhead_s`` — the reason the paper reports IntraO3 a couple of
percent behind InterDy for homogeneous workloads.
"""

from __future__ import annotations

from typing import Optional

from ...policy import register_policy
from .base import Scheduler, WorkItem


@register_policy("scheduler")
class OutOfOrderIntraKernelScheduler(Scheduler):
    """``IntraO3`` — any ready screen from any kernel, oldest kernel first."""

    name = "IntraO3"
    dispatch_overhead_s = 5e-6

    def __init__(self, num_workers: int):
        super().__init__(num_workers)
        self.dispatches = 0
        self.borrowed_dispatches = 0

    def next_work(self, worker_index: int) -> Optional[WorkItem]:
        # Oldest offload first, then microblock order: this matches the
        # paper's examples where screens are pulled forward from later
        # kernels only when earlier kernels cannot fill the LWPs.
        pick = self.chain.oldest_ready()
        if pick is None:
            return None
        chain, node, screen = pick
        # A dispatch is "borrowed" when it does not belong to the oldest
        # incomplete kernel — the out-of-order behaviour of Figure 7c.
        if chain is not self.chain.first_incomplete():
            self.borrowed_dispatches += 1
        self.dispatches += 1
        return self.single_screen_item(chain, node, screen)
