"""Per-device health modeling for the cluster layer.

Each device of the fleet is wrapped in a :class:`DeviceShard`: the built
backend + front-end pair plus a health state (the routing counters live
in the fleet's :class:`~repro.cluster.report.FleetLedger`).  Health
transitions come from the cluster's fault timeline
(:class:`~repro.platform.cluster.FaultSpec`) and change how the dispatcher
treats the device:

* ``HEALTHY`` — full dispatch capacity, receives new traffic.
* ``DEGRADED`` — a slow board: its dispatch capacity is derated by the
  cluster's ``degraded_capacity_factor``, so placement policies see a
  smaller device and route proportionally less work to it.
* ``FAILED`` — out of rotation: receives no new traffic; its queued
  backlog is evicted and rerouted; requests already in flight drain on
  the device (fail-stop with drain — no admitted request is dropped).
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, List

from ..platform.config import PlatformConfig
from ..serve.backends import ServingBackend
from ..serve.frontend import ServingFrontend
from ..serve.request import RequestRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve.slo import SLOTracker


class DeviceHealth(Enum):
    """Health state of one device shard."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    FAILED = "failed"


class DeviceShard:
    """One device of the fleet: backend + front-end + health."""

    def __init__(self, index: int, config: PlatformConfig,
                 backend: ServingBackend, frontend: ServingFrontend,
                 tracker: "SLOTracker"):
        self.index = index
        self.config = config
        self.backend = backend
        self.frontend = frontend
        self.tracker = tracker
        self.health = DeviceHealth.HEALTHY
        # Elastic-fleet lifecycle (all no-ops on a static fleet).
        self.warming = False     # provisioned but still out of placement
        self.draining = False    # scale-down victim: no new traffic
        self.retired = False     # drained and finished; meter stopped
        self.activated_at = 0.0  # when the device started costing
        self.retired_at: float | None = None

    # -- ShardView surface (what placement policies observe) ----------------
    @property
    def queued(self) -> int:
        """Requests waiting in this shard's front-end queues."""
        return self.frontend.total_queued

    @property
    def in_flight(self) -> int:
        """Requests executing on this shard's backend."""
        return self.backend.in_flight

    @property
    def capacity(self) -> int:
        """Current dispatch capacity (health derating applied)."""
        return self.frontend.dispatch_capacity

    @property
    def energy_j(self) -> float:
        """Energy this shard's device has consumed (joules)."""
        return self.backend.energy_j

    # -- health ---------------------------------------------------------------
    @property
    def routable(self) -> bool:
        """Whether the dispatcher may send this shard new traffic.

        Failed devices are out of rotation (PR-3 fault path); elastic
        fleets additionally exclude devices still warming up and
        scale-down victims draining toward retirement.
        """
        return (self.health is not DeviceHealth.FAILED
                and not self.warming and not self.draining
                and not self.retired)

    def apply_health(self, state: DeviceHealth,
                     degraded_capacity_factor: float
                     ) -> List[RequestRecord]:
        """Switch health state and derate/restore dispatch capacity.

        Returns the queued backlog a failure evicts (empty for any other
        transition); placing it is the driver's job, since the driver
        owns the placement policy.  A retired device ignores the
        transition, and so does an already failed device on a repeated
        failure: re-zeroing the capacity of a device that is
        self-draining its backlog (the no-peer fallback) would wedge
        the run.
        """
        if self.retired or (state is DeviceHealth.FAILED
                            and self.health is DeviceHealth.FAILED):
            return []
        self.health = state
        if state is DeviceHealth.HEALTHY:
            self.frontend.capacity_limit = None
        elif state is DeviceHealth.DEGRADED:
            self.frontend.capacity_limit = max(
                1, int(self.backend.capacity * degraded_capacity_factor))
        else:  # FAILED: no new dispatches; in-flight work drains.
            self.frontend.capacity_limit = 0
        # Capacity may have grown: let the dispatcher re-evaluate.
        self.frontend._kick()
        if state is DeviceHealth.FAILED:
            return self.frontend.evict_queued()
        return []
