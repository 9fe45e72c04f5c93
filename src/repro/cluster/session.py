"""Cluster session: run one serving scenario on a sharded fleet.

:class:`ClusterSession` is the fleet counterpart of
:class:`~repro.serve.session.ServingSession`: it builds every device of a
:class:`~repro.platform.cluster.ClusterConfig` on one shared
:class:`~repro.sim.engine.Environment` (each device its own
``PlatformBuilder`` product — backend, admission controller, per-tenant
queues), puts a :class:`~repro.cluster.dispatcher.ClusterDispatcher` in
front, schedules the arrival trace and the fault timeline, drives the
simulation until every request has settled, and rolls the per-device
results into a :class:`~repro.cluster.report.ClusterReport`.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs import MetricsBus, ObsConfig, Tracer, wire_cluster_metrics
from ..platform.cluster import ClusterConfig, FaultSpec
from ..policy import learned_snapshot
from ..serve.report import ServingReport
from ..serve.session import (
    ServingScenario,
    arrival_driver,
    assemble_serving_report,
    build_serving_backend,
    drive_until_settled,
)
from ..serve.frontend import ServingFrontend
from ..serve.slo import SLOTracker
from ..sim.engine import Environment
from .autoscale import AutoscaleController
from .dispatcher import ClusterDispatcher
from .health import DeviceHealth, DeviceShard
from .report import ClusterReport


def build_shard(scenario: ServingScenario, cluster: ClusterConfig,
                env: Environment, index: int) -> DeviceShard:
    """One device shard, from the config of fleet position ``index``.

    Shared by the serial session (one environment for the whole fleet)
    and the parallel runner (one environment per shard).  Positions past
    the configured ``devices`` (elastic scale-up) clone the device
    template; either way the shard's reservoir seed is a pure function
    of the scenario seed and the index, so runs stay byte-reproducible
    and shard-level accounting is comparable across drivers.
    """
    tenants = [t.name for t in scenario.tenants]
    config = cluster.device_config(index)
    backend = build_serving_backend(scenario, config, env=env)
    # Distinct deterministic reservoir seeds per device, offset past the
    # fleet tracker's own per-tenant seed range.
    tracker = SLOTracker(tenants,
                         reservoir_capacity=scenario.reservoir_capacity,
                         seed=scenario.seed + 1000 * (index + 1))
    frontend = ServingFrontend(env, backend, scenario.make_admission(),
                               tracker, tenants,
                               dispatch=scenario.make_dispatch())
    shard = DeviceShard(index, config, backend, frontend, tracker)
    if env.tracer is not None:
        # Tag every span with the shard's device index so trace tracks
        # separate per device.
        frontend.trace_device = index
        backend.bind_trace_device(index)
    return shard


def device_report(scenario: ServingScenario, shard: DeviceShard,
                  makespan_s: float) -> ServingReport:
    """The per-device :class:`ServingReport` of one finished shard."""
    stats_fn = getattr(shard.backend, "scheduler_stats", None)
    report = assemble_serving_report(
        scenario, shard.config.system, shard.tracker,
        makespan_s=makespan_s, energy_j=shard.backend.energy_j,
        scheduler_stats=stats_fn() if stats_fn else None)
    report.learned = learned_snapshot({
        "admission": shard.frontend.admission,
        "dispatch": shard.frontend.dispatch_policy})
    return report


class ClusterSession:
    """Runs one :class:`ServingScenario` on one configured fleet.

    ``obs`` opts into the observability layer (:mod:`repro.obs`): with
    tracing on, every shard's front-end/backend spans are tagged with its
    device index and the dispatcher adds edge-reject and evict/reroute
    spans; with metrics on, the fleet instrument set (per-shard
    outstanding/queue depth/energy plus fleet rates) samples into a
    timeline serialized as the report's ``metrics`` field.  ``obs=None``
    (the default) is the byte-identical pre-observability path.
    """

    def __init__(self, scenario: ServingScenario, cluster: ClusterConfig,
                 obs: Optional[ObsConfig] = None):
        self.scenario = scenario
        self.cluster = cluster
        self.obs = obs
        self.tracer: Optional[Tracer] = None
        self.metrics = None
        self.autoscaler: Optional[AutoscaleController] = None
        # The last run's shards: learned-policy evaluation (learning
        # curves) reads their front-end records after the run.
        self.shards: Optional[List[DeviceShard]] = None

    # ------------------------------------------------------------------ #
    # Simulation processes                                                #
    # ------------------------------------------------------------------ #
    @staticmethod
    def _fault_driver(env: Environment, dispatcher: ClusterDispatcher,
                      faults: List[FaultSpec]):
        for fault in faults:
            delay = fault.time_s - env.now
            if delay > 0:
                yield env.timeout(delay)
            dispatcher.set_health(fault.device,
                                  DeviceHealth(fault.state))

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #
    def run(self) -> ClusterReport:
        """Execute the scenario on the fleet; returns the report."""
        scenario = self.scenario
        obs = self.obs
        env = Environment()
        if obs is not None and obs.tracing:
            # Attached before the shards are built, so every front-end
            # and backend captures the tracer.
            self.tracer = Tracer(obs.trace_capacity)
            env.tracer = self.tracer
        tenants = [t.name for t in scenario.tenants]
        fleet = SLOTracker(tenants,
                           reservoir_capacity=scenario.reservoir_capacity,
                           seed=scenario.seed)
        shards = [build_shard(scenario, self.cluster, env, index)
                  for index in range(len(self.cluster.devices))]
        dispatcher = ClusterDispatcher(env, shards, self.cluster, fleet,
                                       seed=scenario.seed)
        self.shards = shards
        bus: Optional[MetricsBus] = None
        if obs is not None and obs.metrics:
            bus = MetricsBus(cadence_s=obs.cadence_s)
            wire_cluster_metrics(bus, fleet, shards, dispatcher)
            bus.install(env)
        controller: Optional[AutoscaleController] = None
        if self.cluster.elastic:
            # Scale-up shards join the completion stream in
            # ``dispatcher.add_shard``, like the initially provisioned ones.
            def shard_factory(index: int) -> DeviceShard:
                shard = build_shard(scenario, self.cluster, env, index)
                shard.backend.start()
                return shard

            controller = AutoscaleController(env, dispatcher, self.cluster,
                                             fleet, shard_factory)
            controller.install(env)
        self.autoscaler = controller
        requests = scenario.make_arrivals().generate(scenario.duration_s)
        for shard in shards:
            shard.backend.start()
        env.spawn(arrival_driver(env, dispatcher, requests))
        faults = sorted(self.cluster.faults, key=lambda f: f.time_s)
        if faults:
            env.spawn(self._fault_driver(env, dispatcher, faults))
        drive_until_settled(env, fleet, len(requests), scenario.duration_s,
                            label="cluster run")
        if bus is not None:
            # Final sample at settle time, then retire the sampler
            # (de-scheduling its pending tick) so the drain loop below
            # terminates — and ends at the same clock reading as an
            # unobserved run.
            bus.stop(env)
        if controller is not None:
            # Same treatment for the control loop's pending tick and any
            # outstanding warm-up timers.
            controller.stop(env)
        for shard in shards:
            if not shard.retired:   # retired at scale-down: already finished
                shard.backend.finish()
        # Drain background work (Storengine flush/GC) on every device so
        # energy accounting covers every byte served fleet-wide.
        env.run()
        report = dispatcher.ledger.report(
            scenario, self.cluster,
            [device_report(scenario, shard, env.now) for shard in shards],
            makespan_s=env.now,
            energy_j=sum(shard.backend.energy_j for shard in shards),
            final_health=[shard.health.value for shard in shards])
        if bus is not None:
            self.metrics = bus.timeline
            report.metrics = bus.timeline.to_dict()
        if controller is not None:
            report.autoscaler = controller.summary(env.now)
        report.learned = learned_snapshot(
            {"placement": dispatcher.ledger.policy})
        return report


def run_cluster(scenario: ServingScenario,
                cluster: ClusterConfig,
                obs: Optional[ObsConfig] = None) -> ClusterReport:
    """Convenience wrapper: run one scenario on one fleet."""
    return ClusterSession(scenario, cluster, obs=obs).run()
