"""The sharding dispatcher in front of the per-device front-ends.

:class:`ClusterDispatcher` is the fleet's single entry point: every
arriving request is routed to one device shard by the placement policy,
then passes that shard's own admission controller and per-tenant queues
(the existing single-device machinery, unchanged).  The dispatcher also
owns the authoritative *fleet-level* SLO accounting: offered/admitted/
rejected are recorded here, and the fleet tracker subscribes to every
shard front-end's completion stream (scale-up shards included), so fleet
counters stay conserved even when a request is admitted on one device
and — after a failure reroute — completed on another.  The placement
policy subscribes alongside it when it defines ``on_complete(record)``
(learned placement), since a placement decision's outcome surfaces
wherever the request completes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..obs import CLUSTER_EDGE
from ..platform.cluster import ClusterConfig
from ..policy import build_policy
from ..serve.request import Request, RequestRecord, RequestStatus
from ..serve.slo import SLOTracker
from .health import DeviceHealth, DeviceShard
from .placement import PlacementPolicy


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
        self.fleet = fleet
        # An elastic fleet may grow past the initially provisioned
        # shards: the placement policy must be built over the ceiling,
        # or stateless policies (round-robin's modulo, tenant-affinity's
        # hash) could never reach a scaled-up device.  ``seed`` (the
        # scenario seed) feeds learned policies' exploration RNG; static
        # policies never name it.
        device_count = (cluster.effective_max_devices if cluster.elastic
                        else len(shards))
        self.policy = policy if policy is not None else build_policy(
            "placement", cluster.placement_policy_spec(),
            device_count=device_count, salt=cluster.affinity_salt,
            seed=seed)
        self.cluster_rejected = 0    # arrivals with no routable device
        self.reroutes = 0            # backlog records moved off failed devices
        self.health_events: List[Tuple[float, int, str]] = []
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
        hooks.append(self.fleet.on_completed)
        on_complete = getattr(self.policy, "on_complete", None)
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
        self.fleet.on_offered(request.tenant)
        routable = self.routable_shards()
        if not routable:
            # Whole fleet out of rotation: reject at the cluster edge.
            record = RequestRecord(request=request,
                                   status=RequestStatus.REJECTED)
            self.cluster_rejected += 1
            self.fleet.on_rejected(request.tenant)
            tracer = self._tracer
            if tracer is not None:
                # Edge rejections never reach a shard front-end, so the
                # dispatcher records both lifecycle spans itself.
                now = self.env.now
                tracer.span(now, "arrival", request.request_id,
                            request.tenant, CLUSTER_EDGE, request.workload)
                tracer.span(now, "reject", request.request_id,
                            request.tenant, CLUSTER_EDGE)
            return record
        shard = self.policy.select(request, routable)
        record = shard.frontend.submit(request)
        if record.status is RequestStatus.REJECTED:
            self.fleet.on_rejected(request.tenant)
        else:
            shard.routed += 1
            self.fleet.on_admitted(request.tenant)
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
        admitted request is ever dropped.
        """
        shard = self.shards[device]
        self.health_events.append((self.env.now, device, state.value))
        if shard.retired:
            # A scale-down retired this device first: its backend is
            # finished and its meter stopped; the transition is recorded
            # but must not resurrect it.
            return
        if state is DeviceHealth.FAILED \
                and shard.health is DeviceHealth.FAILED:
            # Already failed: a repeated fault must not re-zero the
            # capacity of a device that is self-draining its backlog
            # (the no-peer fallback below), which would wedge the run.
            return
        shard.apply_health(state, self.cluster.degraded_capacity_factor)
        if state is DeviceHealth.FAILED:
            self._reroute_backlog(shard)

    def _reroute_backlog(self, failed: DeviceShard) -> None:
        evicted = failed.frontend.evict_queued()
        if not evicted:
            return
        tracer = self._tracer
        now = self.env.now
        targets = self.routable_shards()
        if not targets:
            # Nowhere to go: the failing device must drain its own backlog
            # (restore its capacity so the dispatch loop is not wedged).
            failed.frontend.capacity_limit = None
            for record in evicted:
                if tracer is not None:
                    # Self-requeue: evicted and rerouted to itself (not
                    # counted in ``reroutes``, matching the counter).
                    rid = record.request.request_id
                    tenant = record.request.tenant
                    tracer.span(now, "evict", rid, tenant, failed.index)
                    tracer.span(now, "reroute", rid, tenant,
                                failed.index, failed.index)
                failed.frontend.enqueue_record(record)
            return
        self._place_evicted(failed, evicted, targets)

    def _place_evicted(self, origin: DeviceShard,
                       evicted: List[RequestRecord],
                       targets: List[DeviceShard]) -> None:
        """Re-place an evicted backlog onto routable peers.

        The one reroute loop shared by the fault path
        (:meth:`set_health` on FAILED) and the scale-down path
        (:meth:`drain_shard`): per record, the placement policy picks a
        target from the routable set captured at eviction time, counters
        bump on both sides, and the policy is notified so learned
        placements can penalize the move.
        """
        origin.rerouted_out += len(evicted)
        self.reroutes += len(evicted)
        tracer = self._tracer
        now = self.env.now
        for record in evicted:
            target = self.policy.select(record.request, targets)
            target.rerouted_in += 1
            record.reroutes += 1
            self.policy.on_reroute(record, origin.index, target.index)
            if tracer is not None:
                rid = record.request.request_id
                tenant = record.request.tenant
                tracer.span(now, "evict", rid, tenant, origin.index)
                tracer.span(now, "reroute", rid, tenant,
                            target.index, origin.index)
            target.frontend.enqueue_record(record)
