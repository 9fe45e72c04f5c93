"""Flash die timing model.

Each TLC package contains two dies; a die executes one array operation at
a time (read sense, program, or erase) while its channel bus is free for
other dies — this die-level parallelism is what lets a channel sustain its
NV-DDR2 bandwidth despite the 81 µs sense time.
"""

from __future__ import annotations


from ..sim.engine import Environment
from ..sim.resources import Resource
from ..hw.spec import FlashSpec


class FlashDie:
    """One flash die: serial array operations, tracked wear."""

    def __init__(self, env: Environment, spec: FlashSpec, channel: int,
                 package: int, die: int):
        self.env = env
        self.spec = spec
        self.channel = channel
        self.package = package
        self.die = die
        self._array = Resource(env, capacity=1,
                               name=f"die[{channel}.{package}.{die}]")
        self.reads = 0
        self.programs = 0
        self.erases = 0

    def read_page(self):
        """Process generator: sense one page out of the array."""
        with self._array.request() as req:
            yield req
            yield self.env.timeout(self.spec.page_read_latency_s)
        self.reads += 1

    def program_page(self):
        """Process generator: program one page into the array."""
        with self._array.request() as req:
            yield req
            yield self.env.timeout(self.spec.page_program_latency_s)
        self.programs += 1

    def erase_block(self):
        """Process generator: erase one block."""
        with self._array.request() as req:
            yield req
            yield self.env.timeout(self.spec.block_erase_latency_s)
        self.erases += 1

    def utilization(self) -> float:
        return self._array.utilization()


class FlashPackage:
    """A package grouping ``dies_per_package`` dies on one channel."""

    def __init__(self, env: Environment, spec: FlashSpec, channel: int,
                 package: int):
        self.env = env
        self.spec = spec
        self.channel = channel
        self.package = package
        self.dies = [FlashDie(env, spec, channel, package, d)
                     for d in range(spec.dies_per_package)]

    def die(self, index: int) -> FlashDie:
        return self.dies[index % len(self.dies)]
