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
from .app import Application, OffloadBatch
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
from .flashvisor import Flashvisor, FlashvisorStats, MappingRequest
from .storengine import Storengine, StorengineStats
from .offload import BootRecord, OffloadController, PowerSleepController
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
    run_flashabacus,
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
    "OffloadBatch",
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
    "MappingRequest",
    "Storengine",
    "StorengineStats",
    "BootRecord",
    "OffloadController",
    "PowerSleepController",
    "DynamicInterKernelScheduler",
    "InOrderIntraKernelScheduler",
    "OutOfOrderIntraKernelScheduler",
    "Scheduler",
    "StaticInterKernelScheduler",
    "WorkItem",
    "ExecutionReport",
    "FlashAbacusAccelerator",
    "FlashAddressSpace",
    "run_flashabacus",
]
