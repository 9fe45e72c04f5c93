"""Flash backbone geometry and address arithmetic.

The backbone has 4 channels, each with 4 packages of 2 dies (Section 2.2).
Flashvisor virtualizes this as *page groups*: one page from every channel
and plane striped together (Section 4.3 — "64KB page group (4 channels * 2
planes per die * 8KB page)").  This module provides the sizes and the
address math used by the FTL and Flashvisor: logical word addresses ->
page-group numbers.
"""

from __future__ import annotations

from ..hw.spec import FlashSpec


class FlashGeometry:
    """Derived sizes and address conversion helpers for a :class:`FlashSpec`."""

    def __init__(self, spec: FlashSpec):
        self.spec = spec
        self.page_bytes = spec.page_bytes
        self.pages_per_block = spec.pages_per_block
        self.channels = spec.channels
        self.packages_per_channel = spec.packages_per_channel
        self.dies_per_package = spec.dies_per_package
        self.planes_per_die = spec.planes_per_die
        self.blocks_per_die = spec.blocks_per_die
        # Derived sizes, computed once: translation reads them per request.
        self.dies_total = (self.channels * self.packages_per_channel
                           * self.dies_per_package)
        self.blocks_total = self.dies_total * self.blocks_per_die
        self.pages_total = self.blocks_total * self.pages_per_block
        self.capacity_bytes = self.pages_total * self.page_bytes
        #: Pages striped into one page group (channels x planes).
        self.pages_per_group = self.channels * self.planes_per_die
        self.page_group_bytes = self.pages_per_group * self.page_bytes
        self.page_groups_total = self.pages_total // self.pages_per_group

    @property
    def groups_per_block_row(self) -> int:
        """Page groups that fit in one block stripe across all dies."""
        return self.pages_per_block

    # -- address conversion --------------------------------------------------
    def bytes_to_page_groups(self, num_bytes: int) -> int:
        """Number of page groups needed to hold ``num_bytes``."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0
        return -(-num_bytes // self.page_group_bytes)

    def word_address_to_group(self, word_address: int,
                              word_bytes: int = 4) -> int:
        """Map a word-based backbone address to its page-group number."""
        if word_address < 0:
            raise ValueError(f"address {word_address} is negative")
        byte_address = word_address * word_bytes
        group = byte_address // self.page_group_bytes
        if group >= self.page_groups_total:
            raise ValueError(
                f"address {word_address} beyond backbone capacity")
        return group
