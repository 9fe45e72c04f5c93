"""Pluggable placement policies for the cluster dispatcher.

A placement policy picks the device shard each arriving request is routed
to.  Policies only ever see *routable* shards (healthy or degraded — never
failed ones) through the tiny :class:`ShardView` surface, and every policy
is deterministic: the same request sequence over the same fleet state
always routes identically, which is what keeps cluster runs cacheable by
content hash.

* :class:`RoundRobinPlacement` — cycle over devices, skipping
  non-routable ones.
* :class:`LeastOutstandingPlacement` — route to the device with the
  lowest backlog per unit of dispatch capacity (degraded devices look
  proportionally smaller).
* :class:`TenantAffinityPlacement` — stable-hash the tenant name onto a
  home device so a tenant's requests co-locate (warm input regions);
  falls forward deterministically when the home device is out.
* :class:`PowerAwarePlacement` — route to the device with the lowest
  accumulated energy, spreading thermal/energy load across the fleet.
* :class:`JoinShortestQueuePlacement` — route to the device with the
  fewest *queued* (not yet dispatched) requests, the textbook JSQ rule.

Every policy registers itself in the unified registry
(:mod:`repro.policy`) under the ``placement`` domain, so a
:class:`~repro.platform.ClusterConfig` picks one declaratively via a
:class:`~repro.policy.PolicySpec`.
"""

from __future__ import annotations

import hashlib
from typing import Protocol, Sequence

from ..policy import PolicySpec, policy_class, register_policy
from ..serve.request import Request


class ShardView(Protocol):
    """What a placement policy may observe about one device shard."""

    @property
    def index(self) -> int: ...
    @property
    def queued(self) -> int: ...
    @property
    def in_flight(self) -> int: ...
    @property
    def capacity(self) -> int: ...
    @property
    def energy_j(self) -> float: ...


def stable_tenant_hash(tenant: str, salt: int = 0) -> int:
    """Process-independent tenant hash (built-in ``hash`` is seeded)."""
    digest = hashlib.sha256(f"{salt}:{tenant}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class PlacementPolicy:
    """Base policy: pick one shard from the routable set."""

    name = "placement"

    #: Whether ``select`` reads the shards' load/energy state (queue
    #: depth, in-flight count, capacity, accumulated energy) as opposed
    #: to only their identity (index, routability).  The epoch-parallel
    #: runner keys its epoch schedule off this: a snapshot-independent
    #: policy routes identically no matter how stale the coordinator's
    #: shard snapshots are, so epochs may widen to the next cross-shard
    #: event (fault or horizon); a snapshot-dependent policy needs the
    #: fixed exchange cadence for fresh snapshots.  Conservative default:
    #: policies that do not declare themselves independent are treated as
    #: snapshot-dependent.
    snapshot_dependent = True

    def select(self, request: Request,
               shards: Sequence[ShardView]) -> ShardView:
        """Pick the shard ``request`` is routed to."""
        raise NotImplementedError

    def on_reroute(self, record, from_device: int,
                   to_device: int) -> None:
        """A queued record moved devices (failure or scale-down drain).

        The dispatcher notifies after every reroute decision; static
        policies ignore it, learned ones count/penalize.
        """


@register_policy("placement")
class RoundRobinPlacement(PlacementPolicy):
    """Cycle over device indices, skipping non-routable devices."""

    name = "round_robin"
    snapshot_dependent = False    # routes by cursor + routability only

    def __init__(self, device_count: int):
        if device_count < 1:
            raise ValueError("device_count must be >= 1")
        self.device_count = device_count
        self._cursor = 0

    def select(self, request: Request,
               shards: Sequence[ShardView]) -> ShardView:
        """The next routable device in cyclic index order."""
        by_index = {shard.index: shard for shard in shards}
        for _ in range(self.device_count):
            index = self._cursor
            self._cursor = (self._cursor + 1) % self.device_count
            if index in by_index:
                return by_index[index]
        # The dispatcher guarantees shards is non-empty.
        return shards[0]


@register_policy("placement")
class LeastOutstandingPlacement(PlacementPolicy):
    """Lowest backlog per unit of dispatch capacity, ties to the lowest index."""

    name = "least_outstanding"

    def select(self, request: Request,
               shards: Sequence[ShardView]) -> ShardView:
        """The shard with the lowest backlog per unit of capacity."""
        def load(shard: ShardView):
            """Sort key: (relative backlog, index)."""
            outstanding = shard.queued + shard.in_flight
            return (outstanding / max(shard.capacity, 1), shard.index)
        return min(shards, key=load)


@register_policy("placement")
class TenantAffinityPlacement(PlacementPolicy):
    """Hash each tenant onto a home device; fall forward when it is out.

    The home index is computed over the *full* device count (not just the
    currently-routable set), so a tenant's home is stable across health
    transitions of unrelated devices.
    """

    name = "tenant_affinity"
    snapshot_dependent = False    # routes by tenant hash + routability only

    def __init__(self, device_count: int, salt: int = 0):
        if device_count < 1:
            raise ValueError("device_count must be >= 1")
        self.device_count = device_count
        self.salt = salt

    def home_index(self, tenant: str) -> int:
        """The tenant's stable home device index."""
        return stable_tenant_hash(tenant, self.salt) % self.device_count

    def select(self, request: Request,
               shards: Sequence[ShardView]) -> ShardView:
        """The home device if routable, else the next index after it."""
        by_index = {shard.index: shard for shard in shards}
        home = self.home_index(request.tenant)
        for offset in range(self.device_count):
            index = (home + offset) % self.device_count
            if index in by_index:
                return by_index[index]
        return shards[0]


@register_policy("placement")
class PowerAwarePlacement(PlacementPolicy):
    """Lowest accumulated energy first, ties to the lowest index."""

    name = "power_aware"

    def select(self, request: Request,
               shards: Sequence[ShardView]) -> ShardView:
        """The shard with the lowest accumulated energy."""
        return min(shards, key=lambda s: (s.energy_j, s.index))


@register_policy("placement")
class JoinShortestQueuePlacement(PlacementPolicy):
    """Fewest queued (not yet dispatched) requests, ties to the lowest index.

    The textbook JSQ rule.  Unlike :class:`LeastOutstandingPlacement` it
    ignores in-flight work and capacity: only the visible queue length
    counts, so a device with many workers mid-service but an empty queue
    looks maximally attractive.
    """

    name = "join_shortest_queue"

    def select(self, request: Request,
               shards: Sequence[ShardView]) -> ShardView:
        """The shard with the shortest queue."""
        return min(shards, key=lambda s: (s.queued, s.index))


def placement_snapshot_dependent(spec) -> bool:
    """Whether ``spec`` names a placement policy that reads shard state.

    Resolved from the class flag (like :func:`~repro.policy.registry.
    policy_is_learned`), not a name list, so third-party policies are
    classified by what they declare — and, defaulting to ``True``, are
    treated conservatively when they declare nothing.
    """
    spec = PolicySpec.coerce(spec)
    return bool(getattr(policy_class("placement", spec.name),
                        "snapshot_dependent", True))
