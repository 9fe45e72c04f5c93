"""The four FlashAbacus kernel-scheduling policies (Sections 4.1 and 4.2).

Each scheduler class registers itself in the unified policy registry
(:mod:`repro.policy`) under the ``scheduler`` domain with its paper name
(``InterSt``/``InterDy``/``IntraIo``/``IntraO3``); importing this package
is what loads the built-in set.  New schedulers are one registered class:

    @register_policy("scheduler")
    class MyScheduler(Scheduler):
        name = "MySched"
        ...
"""

from .base import Scheduler, WorkItem
from .inter_static import StaticInterKernelScheduler
from .inter_dynamic import DynamicInterKernelScheduler
from .intra_inorder import InOrderIntraKernelScheduler
from .intra_ooo import OutOfOrderIntraKernelScheduler

__all__ = [
    "Scheduler",
    "WorkItem",
    "StaticInterKernelScheduler",
    "DynamicInterKernelScheduler",
    "InOrderIntraKernelScheduler",
    "OutOfOrderIntraKernelScheduler",
]
