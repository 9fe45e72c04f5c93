"""The sharding dispatcher in front of the per-device front-ends.

:class:`ClusterDispatcher` is the fleet's single entry point: every
arriving request is routed to one device shard by the placement policy,
then passes that shard's own admission controller and per-tenant queues
(the existing single-device machinery, unchanged).  The dispatcher's
:class:`~repro.cluster.report.FleetLedger` keeps the authoritative
*fleet-level* accounting: offered/admitted/rejected and the routing
counters are recorded there, and the fleet tracker subscribes to every
shard front-end's completion stream (scale-up shards included), so fleet
counters stay conserved even when a request is admitted on one device
and — after a failure reroute — completed on another.  The placement
policy subscribes alongside it when it defines ``on_complete(record)``
(learned placement), since a placement decision's outcome surfaces
wherever the request completes.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs import CLUSTER_EDGE
from ..platform.cluster import ClusterConfig
from ..serve.request import Request, RequestRecord, RequestStatus
from ..serve.slo import SLOTracker
from .health import DeviceHealth, DeviceShard
from .placement import PlacementPolicy
from .report import FleetLedger


class ClusterDispatcher:
    """Routes requests to device shards and handles health transitions."""

    def __init__(self, env, shards: List[DeviceShard],
                 cluster: ClusterConfig, fleet: SLOTracker,
                 policy: Optional[PlacementPolicy] = None,
                 seed: int = 0):
        if not shards:
            raise ValueError("at least one device shard is required")
        self.env = env
        self.shards = shards
        self.cluster = cluster
        self.ledger = FleetLedger(fleet, cluster, len(shards), seed=seed,
                                  policy=policy)
        self.closed = False
        # Observability (repro.obs): the shard front-ends record the
        # per-device request lifecycle; the dispatcher only adds what
        # never reaches a shard (cluster-edge rejections) and the
        # cross-device moves (evict/reroute).
        self._tracer = env.tracer
        for shard in shards:
            self._subscribe(shard)

    def _subscribe(self, shard: DeviceShard) -> None:
        """Join the fleet tracker (and a learning placement policy) to
        ``shard``'s completion stream."""
        hooks = shard.frontend.completion_hooks
        hooks.append(self.ledger.fleet.on_completed)
        on_complete = getattr(self.ledger.policy, "on_complete", None)
        if on_complete is not None:
            hooks.append(on_complete)

    # ------------------------------------------------------------------ #
    # Arrival side                                                        #
    # ------------------------------------------------------------------ #
    def routable_shards(self) -> List[DeviceShard]:
        """Shards currently accepting new traffic (not failed)."""
        return [shard for shard in self.shards if shard.routable]

    def submit(self, request: Request) -> RequestRecord:
        """Route one arrival: pick a shard, let its front-end admit it."""
        ledger = self.ledger
        shard = ledger.route(request, self.shards, self.env.now)
        if shard is None:
            # Whole fleet out of rotation: rejected at the cluster edge.
            tracer = self._tracer
            if tracer is not None:
                # Edge rejections never reach a shard front-end, so the
                # dispatcher records both lifecycle spans itself.
                now = self.env.now
                tracer.span(now, "arrival", request.request_id,
                            request.tenant, CLUSTER_EDGE, request.workload)
                tracer.span(now, "reject", request.request_id,
                            request.tenant, CLUSTER_EDGE)
            return RequestRecord(request=request,
                                 status=RequestStatus.REJECTED)
        record = shard.frontend.submit(request)
        ledger.settle(shard.index, request.tenant,
                      record.status is not RequestStatus.REJECTED)
        return record

    def close(self) -> None:
        """No more arrivals: every shard's dispatcher may drain and exit."""
        self.closed = True
        for shard in self.shards:
            shard.frontend.close()

    # ------------------------------------------------------------------ #
    # Elastic-fleet hooks (driven by the AutoscaleController)             #
    # ------------------------------------------------------------------ #
    def add_shard(self, shard: DeviceShard) -> None:
        """Adopt a freshly provisioned shard into the routable fleet."""
        if shard.index != len(self.shards):
            raise ValueError(
                f"new shard index {shard.index} must extend the fleet "
                f"({len(self.shards)} shards)")
        self.shards.append(shard)
        self.ledger.add_device()
        self._subscribe(shard)

    def drain_shard(self, victim: DeviceShard) -> bool:
        """Move a scale-down victim's backlog to its peers.

        The victim must already be marked ``draining`` (so it is out of
        ``routable_shards``).  Queued records reroute through the
        placement policy exactly like the fault path; in-flight work
        finishes on the victim.  Returns ``False`` — and clears the
        ``draining`` mark — when no peer can adopt the backlog (every
        other device failed): the scale-down is aborted rather than
        stranding admitted requests.
        """
        evicted = victim.frontend.evict_queued()
        if not evicted:
            return True
        targets = self.routable_shards()
        if not targets:
            victim.draining = False
            for record in evicted:
                victim.frontend.enqueue_record(record)
            return False
        self._place_evicted(victim, evicted, targets)
        return True

    @property
    def drained(self) -> bool:
        """True once every shard's front-end has drained."""
        return all(shard.frontend.drained for shard in self.shards)

    # ------------------------------------------------------------------ #
    # Health transitions                                                  #
    # ------------------------------------------------------------------ #
    def set_health(self, device: int, state: DeviceHealth) -> None:
        """Apply one health transition at the current simulation time.

        Failing a device evicts its queued backlog and reroutes each
        record through the placement policy; requests already in flight
        finish on the failing device (fail-stop with drain), so no
        admitted request is ever dropped.  The transition is recorded
        even when the shard ignores it (retired, or already failed).
        """
        shard = self.shards[device]
        self.ledger.health_events.append((self.env.now, device, state.value))
        evicted = shard.apply_health(state,
                                     self.cluster.degraded_capacity_factor)
        if not evicted:
            return
        targets = self.routable_shards()
        if targets:
            self._place_evicted(shard, evicted, targets)
            return
        # Nowhere to go: the failing device must drain its own backlog
        # (restore its capacity so the dispatch loop is not wedged).
        shard.frontend.capacity_limit = None
        tracer = self._tracer
        for record in evicted:
            if tracer is not None:
                # Self-requeue: evicted and rerouted to itself (not
                # counted in ``reroutes``, matching the counter).
                rid = record.request.request_id
                tenant = record.request.tenant
                tracer.span(self.env.now, "evict", rid, tenant, device)
                tracer.span(self.env.now, "reroute", rid, tenant,
                            device, device)
            shard.frontend.enqueue_record(record)

    def _place_evicted(self, origin: DeviceShard,
                       evicted: List[RequestRecord],
                       targets: List[DeviceShard]) -> None:
        """Re-place an evicted backlog onto routable peers.

        The one reroute loop shared by the fault path
        (:meth:`set_health` on FAILED) and the scale-down path
        (:meth:`drain_shard`): per record, the ledger places it on a
        target from the routable set captured at eviction time, and the
        policy is notified so learned placements can penalize the move.
        """
        ledger = self.ledger
        tracer = self._tracer
        now = self.env.now
        for record in evicted:
            target = ledger.reroute(origin.index, record.request, targets)
            record.reroutes += 1
            ledger.policy.on_reroute(record, origin.index, target.index)
            if tracer is not None:
                rid = record.request.request_id
                tenant = record.request.tenant
                tracer.span(now, "evict", rid, tenant, origin.index)
                tracer.span(now, "reroute", rid, tenant,
                            target.index, origin.index)
            target.frontend.enqueue_record(record)
