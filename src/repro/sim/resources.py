"""Shared simulation resources: capacity resources, stores, bandwidth pipes.

These primitives model contention: a :class:`Resource` is a server with a
fixed capacity and priority-ordered waiters (e.g. a flash channel bus or
a die), a :class:`Store` is a FIFO of Python objects (e.g. a flash
controller's inbound transaction queue), and a :class:`BandwidthPipe`
converts byte counts into occupancy time on a one-lane FIFO link with a
fixed bandwidth and per-transfer latency (e.g. PCIe, DDR3L, the flash
backbone's bulk lanes).

A pipe serves one transfer at a time in arrival order, so it needs no
wait queue: it keeps the instant it next falls free, and a transfer
arriving at ``now`` ends at ``max(now, free_at) + occupancy_time(n)``.
The transfer waits on one timeout at that absolute instant
(:meth:`Environment.timeout_at`), where a ``Resource`` would cost a
grant event plus a timeout.  The end instants are the ones a one-slot
``Resource`` followed by a timeout produces, float for float.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List, Optional, Tuple

from .engine import Environment, Event


class Request(Event):
    """Pending acquisition of one unit of a :class:`Resource`.

    Usable as a context manager from inside a process::

        with resource.request() as req:
            yield req
            yield env.timeout(service_time)
    """

    # Like the base Event: resource/store events are allocated on every
    # acquisition in the simulation's hottest paths.
    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int = 0):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        resource._submit(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> bool:
        self.resource.release(self)
        return False


class Resource:
    """A server pool with ``capacity`` identical slots and a wait queue.

    Requests are granted in priority order (lower value first), FIFO among
    equal priorities: waiters sit in a ``(priority, seq)`` heap.
    Utilization of the resource is tracked so models can report busy
    fractions without extra bookkeeping.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: List[Request] = []
        self._queue: List[Tuple[int, int, Request]] = []
        self._seq = 0
        self._busy_time = 0.0
        self._last_change = env.now

    # -- public API --------------------------------------------------------
    def request(self, priority: int = 0) -> Request:
        """Ask for one slot; the returned event triggers when granted."""
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Return a slot previously granted to ``request``."""
        if request in self._users:
            self._account()
            self._users.remove(request)
            self._grant_waiters()
        else:
            # Never granted: drop it from the wait queue if still there.
            self._queue = [
                entry for entry in self._queue if entry[2] is not request
            ]
            heapq.heapify(self._queue)

    def utilization(self, now: Optional[float] = None) -> float:
        """Average fraction of capacity in use since the environment start."""
        now = self.env.now if now is None else now
        busy = self._busy_time + len(self._users) * (now - self._last_change)
        if now <= 0:
            return 0.0
        return busy / (self.capacity * now)

    # -- internals -----------------------------------------------------------
    def _account(self) -> None:
        now = self.env.now
        self._busy_time += len(self._users) * (now - self._last_change)
        self._last_change = now

    def _submit(self, request: Request) -> None:
        if not self._queue and len(self._users) < self.capacity:
            # Uncontended: the heap would pop this request straight back.
            self._account()
            self._users.append(request)
            request.succeed(request)
            return
        self._seq += 1
        heapq.heappush(self._queue, (request.priority, self._seq, request))
        self._grant_waiters()

    def _grant_waiters(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            _prio, _seq, request = heapq.heappop(self._queue)
            self._account()
            self._users.append(request)
            request.succeed(request)


class StoreGet(Event):
    """Pending retrieval of one item from a :class:`Store`."""

    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        store._getters.append(self)
        store._dispatch()


class StorePut(Event):
    """Pending insertion of one item into a bounded :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._putters.append(self)
        store._dispatch()


class Store:
    """FIFO of arbitrary items; models hardware/message queues.

    ``capacity`` bounds the number of buffered items; producers block when
    the queue is full, which is how the flash controllers' tag queues apply
    back-pressure.
    """

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 name: str = ""):
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()
        self._putters: Deque[StorePut] = deque()

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the event triggers once space is available."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Remove the oldest item; the event triggers once one exists."""
        return StoreGet(self)

    def __len__(self) -> int:
        return len(self.items)

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            if self._getters and self.items:
                get = self._getters.popleft()
                get.succeed(self.items.popleft())
                progressed = True


@dataclass
class TransferRecord:
    """Accounting record emitted by :class:`BandwidthPipe.transfer`."""

    start: float
    end: float
    num_bytes: int

    @property
    def duration(self) -> float:
        """Transfer time in simulated seconds."""
        return self.end - self.start


class BandwidthPipe:
    """A link with fixed bandwidth, fixed per-transfer latency, one lane.

    Transfers are serialized in arrival order (one transaction at a
    time), which captures the first-order contention behaviour of DDR
    buses, PCIe links and the flash backbone's bulk lanes in this
    reproduction.
    """

    def __init__(self, env: Environment, bandwidth_bytes_per_s: float,
                 latency_s: float = 0.0, name: str = ""):
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.env = env
        self.bandwidth = float(bandwidth_bytes_per_s)
        self.latency = float(latency_s)
        self.name = name
        self.bytes_moved = 0
        # The instant the lane next falls free, and the service time
        # reserved so far (elapsed or still ahead of the clock).
        self._free_at = env.now
        self._reserved = 0.0

    def occupancy_time(self, num_bytes: int) -> float:
        """Pure service time for ``num_bytes`` (no queueing)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return self.latency + num_bytes / self.bandwidth

    def transfer(self, num_bytes: int):
        """Process generator: move ``num_bytes`` across the link.

        Yields from within a simulation process; returns a
        :class:`TransferRecord` whose duration includes the queue wait.
        """
        env = self.env
        start = env._now
        service = self.occupancy_time(num_bytes)
        free_at = self._free_at
        end = (free_at if free_at > start else start) + service
        self._free_at = end
        self._reserved += service
        yield env.timeout_at(end)
        self.bytes_moved += num_bytes
        return TransferRecord(start=start, end=end, num_bytes=num_bytes)

    def utilization(self) -> float:
        """Fraction of time the link was busy."""
        now = self.env.now
        if now <= 0:
            return 0.0
        busy = self._reserved
        ahead = self._free_at - now
        if ahead > 0:
            busy -= ahead
        return busy / now
