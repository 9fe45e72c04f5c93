"""Static inter-kernel scheduling (Section 4.1, Figure 5a/b).

Every incoming kernel is statically bound to one worker LWP based on its
application number (``app_id % num_workers``).  Each bound worker executes
its kernels from beginning to end, one after another, as single instruction
streams.  Simple to implement, needs no further host communication — but
load imbalance leaves LWPs idle whenever the per-application kernel loads
differ, which is exactly the weakness the paper's evaluation exposes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from ...policy import register_policy
from ..kernel import Kernel
from .base import Scheduler, WorkItem


@register_policy("scheduler")
class StaticInterKernelScheduler(Scheduler):
    """``InterSt`` — kernels pinned to LWPs by application number."""

    name = "InterSt"
    dispatch_overhead_s = 1e-6

    def __init__(self, num_workers: int):
        super().__init__(num_workers)
        self._queues: Dict[int, Deque[Kernel]] = {
            w: deque() for w in range(num_workers)
        }

    def _on_offload(self, kernel: Kernel) -> None:
        worker = kernel.app_id % self.num_workers
        self._queues[worker].append(kernel)

    def next_work(self, worker_index: int) -> Optional[WorkItem]:
        queue = self._queues.get(worker_index % self.num_workers)
        if not queue:
            return None
        kernel = queue.popleft()
        chain = self.chain.chain_for_kernel(kernel)
        return self.whole_kernel_item(chain)
