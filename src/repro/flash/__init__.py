"""Flash backbone substrate: geometry, the backbone's timing, the FTL."""

from .geometry import FlashGeometry
from .ftl import (
    BlockAllocator,
    BlockRowState,
    OutOfSpaceError,
    PageGroupMappingTable,
)
from .backbone import FlashBackbone

__all__ = [
    "FlashGeometry",
    "BlockAllocator",
    "BlockRowState",
    "OutOfSpaceError",
    "PageGroupMappingTable",
    "FlashBackbone",
]
