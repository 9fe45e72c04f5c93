"""Bandwidth pipes: the one contention primitive the models share.

A :class:`BandwidthPipe` converts byte counts into occupancy time on a
one-lane FIFO link with a fixed bandwidth and per-transfer latency
(PCIe, DDR3L, the flash backbone's bulk lanes).

A pipe serves one transfer at a time in arrival order, so it needs no
wait queue: it keeps the instant it next falls free, and a transfer
arriving at ``now`` ends at ``max(now, free_at) + occupancy_time(n)``.
The transfer waits on one timeout at that absolute instant
(:meth:`Environment.timeout_at`), where a one-slot server would cost a
grant event plus a timeout; the end instants are the ones such a
server followed by a timeout produces, float for float.

Everything else a model waits on is sized by its traffic: a path with
one client and no contention (the baseline's NVMe SSD, Storengine GC's
page-group flash operations) takes one timeout of its closed-form time
instead of queueing on a server that never queues.
"""

from __future__ import annotations

from .engine import Environment


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

        Yields from within a simulation process; returns the transfer's
        duration in simulated seconds, queue wait included.
        """
        env = self.env
        start = env._now
        end = self.reserve(num_bytes, start)
        yield env.timeout_at(end)
        self.bytes_moved += num_bytes
        return end - start

    def reserve(self, num_bytes: int, start: float) -> float:
        """Queue a transfer of ``num_bytes`` issued at instant ``start``;
        return the instant it ends.

        The lane is FIFO, so the end is known at issue: the transfer
        begins when the lane falls free (or at ``start``) and holds it
        for its service time.  The caller adds ``num_bytes`` to
        :attr:`bytes_moved` once the transfer has ended.
        """
        service = self.occupancy_time(num_bytes)
        free_at = self._free_at
        end = (free_at if free_at > start else start) + service
        self._free_at = end
        self._reserved += service
        return end

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
