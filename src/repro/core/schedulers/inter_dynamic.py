"""Dynamic inter-kernel scheduling (Section 4.1, Figure 5c).

Flashvisor keeps a single queue of offloaded kernels and hands the next one
to whichever worker LWP reports itself free (workers signal completion
through the hardware message queue, so Flashvisor always knows who is
idle).  This keeps all LWPs busy as long as enough kernel execution
requests are pending, which makes it the best policy for homogeneous
workloads — but a single "straggler" kernel still bounds the makespan
because a kernel never spans more than one LWP.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ...policy import register_policy
from ..kernel import Kernel
from .base import Scheduler, WorkItem


@register_policy("scheduler")
class DynamicInterKernelScheduler(Scheduler):
    """``InterDy`` — first-free-worker gets the next queued kernel."""

    name = "InterDy"
    dispatch_overhead_s = 2e-6

    def __init__(self, num_workers: int):
        super().__init__(num_workers)
        self._ready: Deque[Kernel] = deque()
        self.dispatches = 0

    def _on_offload(self, kernel: Kernel) -> None:
        self._ready.append(kernel)

    def next_work(self, worker_index: int) -> Optional[WorkItem]:
        if not self._ready:
            return None
        kernel = self._ready.popleft()
        self.dispatches += 1
        chain = self.chain.chain_for_kernel(kernel)
        return self.whole_kernel_item(chain)
