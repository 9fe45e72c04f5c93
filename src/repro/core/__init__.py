"""FlashAbacus core: multi-kernel execution, Flashvisor, Storengine, schedulers."""

from .kernel import (
    DATA_SECTION,
    HEAP_SECTION,
    Kernel,
    KernelDescriptionTable,
    Microblock,
    STACK_SECTION,
    Screen,
    TEXT_SECTION,
    build_kernel,
)
from .app import Application
from .execution_chain import (
    KernelChain,
    MicroblockNode,
    MultiAppExecutionChain,
    ScreenNode,
    ScreenStatus,
)
from .range_lock import (
    READ,
    WRITE,
    LockedRange,
    RangeLock,
    RangeLockConflict,
)
from .flashvisor import Flashvisor, FlashvisorStats
from .storengine import Storengine, StorengineStats
from .offload import OffloadController
from .schedulers import (
    DynamicInterKernelScheduler,
    InOrderIntraKernelScheduler,
    OutOfOrderIntraKernelScheduler,
    Scheduler,
    StaticInterKernelScheduler,
    WorkItem,
)
from .accelerator import (
    ExecutionReport,
    FlashAbacusAccelerator,
    FlashAddressSpace,
)

__all__ = [
    "DATA_SECTION",
    "HEAP_SECTION",
    "Kernel",
    "KernelDescriptionTable",
    "Microblock",
    "STACK_SECTION",
    "Screen",
    "TEXT_SECTION",
    "build_kernel",
    "Application",
    "KernelChain",
    "MicroblockNode",
    "MultiAppExecutionChain",
    "ScreenNode",
    "ScreenStatus",
    "READ",
    "WRITE",
    "LockedRange",
    "RangeLock",
    "RangeLockConflict",
    "Flashvisor",
    "FlashvisorStats",
    "Storengine",
    "StorengineStats",
    "OffloadController",
    "DynamicInterKernelScheduler",
    "InOrderIntraKernelScheduler",
    "OutOfOrderIntraKernelScheduler",
    "Scheduler",
    "StaticInterKernelScheduler",
    "WorkItem",
    "ExecutionReport",
    "FlashAbacusAccelerator",
    "FlashAddressSpace",
]
