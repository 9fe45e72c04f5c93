"""The conventional heterogeneous baseline (``SIMD``): host + NVMe SSD + accelerator."""

from .ssd import NVMeSSD
from .storage_stack import HostStorageStack, IO_REQUEST_BYTES, StackStats
from .host import HostCPU
from .system import BaselineSystem, KernelTimeBreakdown

__all__ = [
    "NVMeSSD",
    "HostStorageStack",
    "IO_REQUEST_BYTES",
    "StackStats",
    "HostCPU",
    "BaselineSystem",
    "KernelTimeBreakdown",
]
