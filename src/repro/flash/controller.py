"""FPGA-based flash controller with inbound/outbound tag queues.

Section 2.2: "our flash controller implements inbound and outbound 'tag'
queues, each of which is used for buffering the requests with minimum
overheads."  The controller receives flash transactions from the processor
network (through the tier-2 crossbar / SRIO lanes), dispatches them to its
channel, and posts completions to the outbound queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.engine import Environment, Event
from ..sim.resources import Store
from ..hw.spec import FlashSpec
from .channel import FlashChannel
from .geometry import PhysicalPageAddress


@dataclass
class FlashTransaction:
    """One page-granularity request handed to a controller."""

    op: str                      # "read" | "program" | "erase"
    address: PhysicalPageAddress
    tag: int = 0
    issued_at: float = 0.0
    completed_at: Optional[float] = None
    done: Optional[Event] = None


class FlashController:
    """Per-channel controller converting network requests into flash ops."""

    VALID_OPS = ("read", "program", "erase")

    def __init__(self, env: Environment, spec: FlashSpec,
                 channel: FlashChannel, queue_depth: int = 16):
        self.env = env
        self.spec = spec
        self.channel = channel
        self.inbound = Store(env, capacity=queue_depth,
                             name=f"ch{channel.channel_id}.inbound")
        self.outbound = Store(env, capacity=queue_depth,
                              name=f"ch{channel.channel_id}.outbound")
        self._tag = 0
        self._service_proc = env.spawn(self._service_loop())

    # -- submission -----------------------------------------------------------
    def submit(self, op: str, address: PhysicalPageAddress):
        """Process generator: enqueue a transaction; returns it with a
        ``done`` event the caller can wait on."""
        if op not in self.VALID_OPS:
            raise ValueError(f"unknown flash op: {op!r}")
        self._tag += 1
        txn = FlashTransaction(op=op, address=address, tag=self._tag,
                               issued_at=self.env.now, done=self.env.event())
        yield self.inbound.put(txn)
        return txn

    # -- service loop -----------------------------------------------------------
    def _service_loop(self):
        while True:
            txn = yield self.inbound.get()
            yield from self._execute(txn)
            txn.completed_at = self.env.now
            if txn.done is not None and not txn.done.triggered:
                # No value: a done event carrying its own transaction
                # would be a reference cycle.
                txn.done.succeed()
            yield self.outbound.put(txn)
            # Drain the outbound queue immediately: the network-side consumer
            # in this behavioral model is the requester waiting on ``done``.
            yield self.outbound.get()

    def _execute(self, txn: FlashTransaction):
        addr = txn.address
        if txn.op == "read":
            yield from self.channel.read_page(addr.package, addr.die)
        elif txn.op == "program":
            yield from self.channel.program_page(addr.package, addr.die)
        else:
            yield from self.channel.erase_block(addr.package, addr.die)
