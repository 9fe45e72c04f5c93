"""Graph and big-data kernels used in Section 5.6 (Fig. 16).

The paper selects five representative data-intensive applications from the
Rodinia and Mars suites: K-nearest neighbours (nn), breadth-first search
(bfs), Needleman-Wunsch sequence alignment (nw), pathfinder grid traversal
(path) and MapReduce wordcount (wc).  They are descriptor-level kernels
built the same way as the PolyBench set, using the characteristics in
:data:`repro.workloads.characteristics.REALWORLD`.
"""

from __future__ import annotations

from typing import List

from ..core.app import Application
from ..core.kernel import Kernel
from .characteristics import REALWORLD, REALWORLD_ORDER
from .polybench import DEFAULT_SCREENS_PER_MICROBLOCK, build_workload_kernel


def realworld_application(name: str, app_id: int = 0,
                          screens_per_microblock: int = DEFAULT_SCREENS_PER_MICROBLOCK,
                          input_scale: float = 1.0) -> Application:
    """Wrap one graph/bigdata workload as an :class:`Application`."""
    try:
        characteristics = REALWORLD[name]
    except KeyError:
        raise KeyError(f"unknown graph/bigdata workload: {name!r}; "
                       f"choose from {REALWORLD_ORDER}") from None

    def factory(app: int, instance: int) -> Kernel:
        return build_workload_kernel(characteristics, app_id=app,
                                     instance=instance,
                                     screens_per_microblock=screens_per_microblock,
                                     input_scale=input_scale)

    return Application(name=name, app_id=app_id, kernel_factories=[factory])


def realworld_workload(name: str, instances: int = 6,
                       screens_per_microblock: int = DEFAULT_SCREENS_PER_MICROBLOCK,
                       input_scale: float = 1.0) -> List[Kernel]:
    """N instances of one graph/bigdata kernel (the Fig. 16 setup)."""
    app = realworld_application(name, app_id=0,
                                screens_per_microblock=screens_per_microblock,
                                input_scale=input_scale)
    return app.instantiate(instances)
