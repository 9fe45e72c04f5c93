"""NV-DDR2 flash channel model.

A channel serializes bus transfers (command/address/data cycles) while its
four packages perform array operations in parallel.  Reads therefore cost
``sense_time`` on the die plus ``page / bus_bandwidth`` on the bus; with
enough outstanding requests the channel is transfer-limited, matching the
3.2 GB/s aggregate estimate in Table 1.
"""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Environment
from ..sim.resources import Resource
from ..hw.spec import FlashSpec
from .package import FlashDie, FlashPackage


class FlashChannel:
    """One ONFi channel: a shared bus in front of several packages."""

    def __init__(self, env: Environment, spec: FlashSpec, channel_id: int):
        self.env = env
        self.spec = spec
        self.channel_id = channel_id
        self.packages = [FlashPackage(env, spec, channel_id, p)
                         for p in range(spec.packages_per_channel)]
        self._bus = Resource(env, capacity=1, name=f"ch{channel_id}.bus")
        self.bytes_read = 0
        self.bytes_written = 0

    # -- helpers -------------------------------------------------------------
    def die_at(self, package: int, die: int) -> FlashDie:
        return self.packages[package % len(self.packages)].die(die)

    def _bus_time(self, num_bytes: int) -> float:
        return num_bytes / self.spec.channel_bus_bandwidth

    # -- timed operations ------------------------------------------------------
    def read_page(self, package: int = 0, die: int = 0,
                  num_bytes: Optional[int] = None):
        """Process generator: read one page (array sense + bus transfer)."""
        num_bytes = self.spec.page_bytes if num_bytes is None else num_bytes
        target = self.die_at(package, die)
        yield from target.read_page()
        with self._bus.request() as req:
            yield req
            yield self.env.timeout(self._bus_time(num_bytes))
        self.bytes_read += num_bytes

    def program_page(self, package: int = 0, die: int = 0,
                     num_bytes: Optional[int] = None):
        """Process generator: program one page (bus transfer + array program)."""
        num_bytes = self.spec.page_bytes if num_bytes is None else num_bytes
        target = self.die_at(package, die)
        with self._bus.request() as req:
            yield req
            yield self.env.timeout(self._bus_time(num_bytes))
        yield from target.program_page()
        self.bytes_written += num_bytes

    def erase_block(self, package: int = 0, die: int = 0):
        """Process generator: erase one block on a die (no bus data)."""
        target = self.die_at(package, die)
        yield from target.erase_block()

    # -- metrics -------------------------------------------------------------
    def bus_utilization(self) -> float:
        return self._bus.utilization()
