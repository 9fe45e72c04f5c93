"""Applications: named groups of kernels offloaded together.

Section 3.2 / Figure 4b: a host can offload multiple kernels belonging to
different applications; FlashAbacus schedules them all internally.  An
:class:`Application` here is a factory that expands a workload description
into concrete :class:`~repro.core.kernel.Kernel` instances (one per
"instance" in the paper's evaluation: 6 per kernel for homogeneous runs,
4 per kernel for the heterogeneous mixes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

from .kernel import Kernel


KernelFactory = Callable[[int, int], Kernel]


@dataclass
class Application:
    """A user application comprising one or more kernel factories."""

    name: str
    app_id: int
    kernel_factories: List[KernelFactory] = field(default_factory=list)

    def instantiate(self, instances: int = 1) -> List[Kernel]:
        """Create ``instances`` copies of every kernel of this application."""
        if instances < 1:
            raise ValueError("instances must be >= 1")
        kernels: List[Kernel] = []
        for instance in range(instances):
            for factory in self.kernel_factories:
                kernel = factory(self.app_id, instance)
                kernels.append(kernel)
        return kernels
