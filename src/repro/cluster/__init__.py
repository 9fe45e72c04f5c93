"""Cluster scale-out layer: shard serving across a fleet of devices.

``repro.cluster`` sits on top of ``repro.serve``: where the serving layer
drives *one* accelerator (or baseline) under open-loop traffic, this layer
builds N independent devices — each its own
:class:`~repro.platform.PlatformBuilder` product — on one shared event
engine, routes arrivals to devices with pluggable placement policies
(round-robin, least-outstanding, tenant-affinity hashing, power-aware,
join-shortest-queue — all registered in the unified policy registry,
:mod:`repro.policy`), models per-device health (a device can be derated
or failed mid-run, its backlog rerouted without dropping admitted
requests), and rolls the per-device reports into a fleet-level
:class:`~repro.cluster.report.ClusterReport`.  Fleets can also run
*elastic*: an :class:`~repro.cluster.autoscale.AutoscaleController`
samples load each control tick and grows/shrinks the fleet through a
registered ``autoscaler`` policy, with warm-up on scale-up and a
drain-before-removal scale-down that never drops an admitted request.
"""

from .autoscale import (
    AutoscaleController,
    AutoscalerPolicy,
    FleetSignals,
    QueueDepthThresholdAutoscaler,
)
from .dispatcher import ClusterDispatcher
from .health import DeviceHealth, DeviceShard
from .placement import (
    JoinShortestQueuePlacement,
    LeastOutstandingPlacement,
    PlacementPolicy,
    PowerAwarePlacement,
    RoundRobinPlacement,
    TenantAffinityPlacement,
    stable_tenant_hash,
)
from .parallel import (
    ParallelClusterSession,
    ParallelConfig,
)
from .report import ClusterReport
from .session import ClusterSession, run_cluster

__all__ = [
    "AutoscaleController",
    "AutoscalerPolicy",
    "FleetSignals",
    "QueueDepthThresholdAutoscaler",
    "ClusterDispatcher",
    "DeviceHealth",
    "DeviceShard",
    "JoinShortestQueuePlacement",
    "LeastOutstandingPlacement",
    "PlacementPolicy",
    "PowerAwarePlacement",
    "RoundRobinPlacement",
    "TenantAffinityPlacement",
    "stable_tenant_hash",
    "ParallelClusterSession",
    "ParallelConfig",
    "ClusterReport",
    "ClusterSession",
    "run_cluster",
]
