"""Serving scenario description and the session engine that runs it.

A :class:`ServingScenario` is the declarative, serializable description of
one open-loop serving run: which arrival process at which offered load,
for how long, over which tenants and Table-2 kernels, under which
admission policy.  Like :class:`~repro.platform.PlatformConfig` it
round-trips losslessly through plain dicts, so the experiment orchestrator
can key its result cache on the scenario content.

:class:`ServingSession` executes a scenario on one system (a FlashAbacus
scheduler or the ``SIMD`` baseline): it builds the platform, generates the
arrival trace, schedules the arrivals into the front-end, drives the
simulation until every request has settled, and assembles a
:class:`~repro.serve.report.ServingReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..baseline.system import BaselineSystem
from ..core.accelerator import FlashAbacusAccelerator
from ..core.kernel import Kernel
from ..obs import MetricsBus, ObsConfig, Tracer, wire_serving_metrics
from ..platform.config import PlatformConfig
from ..policy import (
    PolicySpec,
    build_policy,
    learned_snapshot,
    policy_class,
)
from ..workloads.characteristics import lookup
from ..workloads.polybench import (
    DEFAULT_SCREENS_PER_MICROBLOCK,
    build_workload_kernel,
)
from .arrivals import (
    DEFAULT_WORKLOAD_POOL,
    ArrivalProcess,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TenantSpec,
    TraceArrivals,
)
from .backends import AcceleratorBackend, BaselineBackend, ServingBackend
from .frontend import ServingFrontend
from .report import ServingReport
from .request import Request
from .slo import REPORT_PERCENTILES, SLOTracker, TenantAccount

ARRIVAL_PROCESSES = ("poisson", "mmpp", "diurnal", "trace")


def make_kernel_factory(scenario: "ServingScenario",
                        config: PlatformConfig):
    """Request -> Kernel builder shared by single-device and cluster runs.

    Tenant identity maps to the kernel's ``app_id`` (input regions are
    shared per application) and the request id to the instance number, so
    every request builds a distinct kernel deterministically.
    """
    tenant_index = {t.name: i for i, t in enumerate(scenario.tenants)}
    input_scale = config.input_scale

    def build(request: Request) -> Kernel:
        """Build the deterministic kernel for one request."""
        characteristics = lookup(request.workload)
        return build_workload_kernel(
            characteristics,
            app_id=tenant_index[request.tenant],
            instance=request.request_id,
            screens_per_microblock=DEFAULT_SCREENS_PER_MICROBLOCK,
            input_scale=input_scale)

    return build


def build_serving_backend(scenario: "ServingScenario",
                          config: PlatformConfig,
                          env=None) -> ServingBackend:
    """Build the execution backend for one device.

    ``env=None`` gives the device its own :class:`Environment` (the
    single-device serving path); the cluster layer passes one shared
    environment so all devices advance on the same virtual clock.
    """
    factory = make_kernel_factory(scenario, config)
    if config.is_baseline:
        return BaselineBackend(BaselineSystem(env=env, config=config),
                               factory)
    return AcceleratorBackend(
        FlashAbacusAccelerator(env=env, config=config), factory)


def arrival_driver(env, sink, requests: List[Request]):
    """Process generator: feed a time-sorted arrival trace into ``sink``.

    ``sink`` is anything with ``submit(request)`` and ``close()`` — the
    single-device front-end or the cluster layer's sharding dispatcher.
    """
    for request in requests:
        delay = request.arrival_s - env.now
        if delay > 0:
            yield env.timeout(delay)
        sink.submit(request)
    sink.close()


def latency_summary(account: TenantAccount) -> Dict[str, Optional[float]]:
    """The latency dict every serving-style report carries."""
    latency: Dict[str, Optional[float]] = {}
    for pct in REPORT_PERCENTILES:
        latency[f"p{pct:g}_s"] = account.percentile(pct)
    latency["mean_s"] = (account.latency.mean
                         if account.latency.count else None)
    latency["max_s"] = (account.latency.max
                        if account.latency.count else None)
    return latency


def assemble_serving_report(scenario: "ServingScenario", system: str,
                            tracker: SLOTracker, makespan_s: float,
                            energy_j: float,
                            scheduler_stats=None) -> ServingReport:
    """Roll one tracker's accounting into a :class:`ServingReport`.

    Shared by the single-device session and the cluster layer's
    per-device reports, so the two can never drift field-wise.
    """
    aggregate = tracker.aggregate
    duration = scenario.duration_s
    return ServingReport(
        system=system,
        workload=scenario.label,
        duration_s=duration,
        makespan_s=makespan_s,
        offered=aggregate.offered,
        admitted=aggregate.admitted,
        rejected=aggregate.rejected,
        completed=aggregate.completed,
        slo_violations=aggregate.slo_violations,
        offered_rps=aggregate.offered / duration,
        goodput_rps=aggregate.goodput_rps(duration),
        latency=latency_summary(aggregate),
        per_tenant={tenant: tracker.account(tenant).as_dict(duration)
                    for tenant in tracker.tenants()},
        energy_j=energy_j,
        scheduler_stats=dict(scheduler_stats) if scheduler_stats else {},
    )


def drive_watched(env, done: Callable[[], bool],
                  progress: Callable[[], int], duration_s: float,
                  label: str, status: Callable[[], str]) -> None:
    """Run ``env`` until ``done()`` holds, under the stall watchdog.

    An exhausted event queue can never happen while an accelerator
    backend is up (Storengine polls perpetually until stopped), so
    ``progress`` (the settled-request count) is what is watched — if it
    stays put for ``max(60, 10 * duration_s)`` simulated seconds, the
    run is wedged.  Either way the run fails with a ``RuntimeError``
    naming ``label`` and ``status()``.  Crashes of backend-owned
    processes need no polling here: they are spawned
    (:meth:`~repro.sim.engine.Environment.spawn`) and re-raise out of
    the engine loop.
    """
    stall_horizon = max(60.0, 10.0 * duration_s)
    outcome = env.run_until(done, progress=progress, stall_s=stall_horizon)
    if outcome == "drained":
        raise RuntimeError(
            f"{label} stalled: {status()} at t={env.now:.3f}s")
    if outcome == "stalled":
        raise RuntimeError(
            f"{label} stalled: no request settled for "
            f"{stall_horizon:.0f} simulated seconds "
            f"({status()} at t={env.now:.3f}s)")


def drive_until_settled(env, tracker: SLOTracker, expected: int,
                        duration_s: float,
                        label: str = "serving run") -> None:
    """Run ``env`` until ``expected`` requests settled, with a watchdog
    (see :func:`drive_watched`)."""
    aggregate = tracker.aggregate
    drive_watched(
        env, lambda: aggregate.completed + aggregate.rejected >= expected,
        lambda: tracker.settled, duration_s, label,
        lambda: f"{tracker.settled}/{expected} requests settled")


#: Default tenant set: two equal-share tenants with the same SLO, so the
#: multi-tenant path is exercised even by one-line experiments.
DEFAULT_TENANTS: Tuple[TenantSpec, ...] = (
    TenantSpec("tenant-a", 1.0, 1.0),
    TenantSpec("tenant-b", 1.0, 1.0),
)


@dataclass(frozen=True)
class ServingScenario:
    """Declarative description of one open-loop serving run.

    ``offered_rps`` is the base rate of the arrival process (the peak rate
    for ``diurnal``; ignored for ``trace``).  All fields are hashable
    plain data so scenarios can key the experiment registry/cache.

    Admission and dispatch are policy domains of the unified registry
    (:mod:`repro.policy`).  ``admission`` and ``dispatch_spec`` each hold
    one :class:`~repro.policy.PolicySpec`; a name string or a
    ``{"name": ..., "params": ...}`` dict is coerced.  Policy knobs are
    spec params, e.g. ``queue_depth``'s ``max_tenant_depth`` (default 64).
    """

    process: str = "poisson"
    offered_rps: float = 20.0
    duration_s: float = 10.0
    seed: int = 1
    workloads: Tuple[str, ...] = DEFAULT_WORKLOAD_POOL
    tenants: Tuple[TenantSpec, ...] = DEFAULT_TENANTS
    admission: PolicySpec = PolicySpec("queue_depth")
    dispatch_spec: PolicySpec = PolicySpec("round_robin")
    # MMPP (bursty) parameters
    mmpp_burst_factor: float = 4.0
    mmpp_normal_dwell_s: float = 2.0
    mmpp_burst_dwell_s: float = 0.5
    # Diurnal-ramp parameters
    diurnal_period_s: float = 60.0
    diurnal_floor: float = 0.2
    # Trace replay: (arrival_s, tenant, workload) triples
    trace_events: Tuple[Tuple[float, str, str], ...] = ()
    # SLO accounting
    reservoir_capacity: int = 4096

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ValueError(f"unknown arrival process {self.process!r}; "
                             f"choose from {ARRIVAL_PROCESSES}")
        if self.process != "trace" and self.offered_rps <= 0:
            raise ValueError("offered_rps must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self.tenants:
            raise ValueError("at least one tenant is required")
        if self.process == "trace" and not self.trace_events:
            raise ValueError("trace scenarios need trace_events")
        # Coerce and eagerly validate the policy selections: a mistyped
        # name should fail at construction, not minutes into a sweep.
        for domain, attr in (("admission", "admission"),
                             ("dispatch", "dispatch_spec")):
            spec = PolicySpec.coerce(getattr(self, attr))
            object.__setattr__(self, attr, spec)
            policy_class(domain, spec.name)

    @property
    def label(self) -> str:
        """Cache/registry identity prefix, e.g. ``serve-poisson-40rps``."""
        return f"serve-{self.process}-{self.offered_rps:g}rps"

    # ------------------------------------------------------------------ #
    # Factories                                                           #
    # ------------------------------------------------------------------ #
    def make_arrivals(self) -> ArrivalProcess:
        """Instantiate the scenario's arrival process."""
        if self.process == "poisson":
            return PoissonArrivals(self.offered_rps, self.tenants,
                                   self.workloads, self.seed)
        if self.process == "mmpp":
            return MMPPArrivals(self.offered_rps, self.tenants,
                                self.workloads, self.seed,
                                burst_factor=self.mmpp_burst_factor,
                                normal_dwell_s=self.mmpp_normal_dwell_s,
                                burst_dwell_s=self.mmpp_burst_dwell_s)
        if self.process == "diurnal":
            return DiurnalArrivals(self.offered_rps, self.tenants,
                                   self.workloads, self.seed,
                                   period_s=self.diurnal_period_s,
                                   floor_fraction=self.diurnal_floor)
        return TraceArrivals(list(self.trace_events), self.tenants,
                             self.seed)

    def make_admission(self):
        """Instantiate the scenario's admission controller.

        The scenario seed is offered as context so learned policies
        derive their exploration RNG from it; static policies do not
        name a ``seed`` param and never see it.
        """
        return build_policy("admission", self.admission, seed=self.seed)

    def make_dispatch(self):
        """Instantiate the scenario's tenant-dispatch policy.

        The scenario's tenant weights are offered as context defaults, so
        ``weighted_fair`` without an explicit ``weights`` param follows
        the traffic shares of the tenant specs; the seed context feeds
        learned policies' exploration RNG.
        """
        return build_policy(
            "dispatch", self.dispatch_spec,
            weights={t.name: t.weight for t in self.tenants},
            seed=self.seed)

    # ------------------------------------------------------------------ #
    # Serialization                                                       #
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict (JSON-safe) form; keys the experiment cache."""
        return {
            "process": self.process,
            "offered_rps": self.offered_rps,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "workloads": list(self.workloads),
            "tenants": [[t.name, t.weight, t.slo_s] for t in self.tenants],
            "admission": self.admission.to_dict(),
            "dispatch_spec": self.dispatch_spec.to_dict(),
            "mmpp_burst_factor": self.mmpp_burst_factor,
            "mmpp_normal_dwell_s": self.mmpp_normal_dwell_s,
            "mmpp_burst_dwell_s": self.mmpp_burst_dwell_s,
            "diurnal_period_s": self.diurnal_period_s,
            "diurnal_floor": self.diurnal_floor,
            "trace_events": [list(e) for e in self.trace_events],
            "reservoir_capacity": self.reservoir_capacity,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ServingScenario":
        """Rebuild a scenario from :meth:`to_dict` output."""
        tenants = tuple(TenantSpec(name, weight, slo)
                        for name, weight, slo in data.get("tenants", []))
        trace = tuple((float(t), str(tenant), str(workload))
                      for t, tenant, workload
                      in data.get("trace_events", []))
        return cls(
            process=str(data.get("process", "poisson")),
            offered_rps=float(data.get("offered_rps", 20.0)),
            duration_s=float(data.get("duration_s", 10.0)),
            seed=int(data.get("seed", 1)),
            workloads=tuple(data.get("workloads", DEFAULT_WORKLOAD_POOL)),
            tenants=tenants or DEFAULT_TENANTS,
            admission=PolicySpec.from_dict(
                data.get("admission", {"name": "queue_depth"})),
            dispatch_spec=PolicySpec.from_dict(
                data.get("dispatch_spec", {"name": "round_robin"})),
            mmpp_burst_factor=float(data.get("mmpp_burst_factor", 4.0)),
            mmpp_normal_dwell_s=float(data.get("mmpp_normal_dwell_s", 2.0)),
            mmpp_burst_dwell_s=float(data.get("mmpp_burst_dwell_s", 0.5)),
            diurnal_period_s=float(data.get("diurnal_period_s", 60.0)),
            diurnal_floor=float(data.get("diurnal_floor", 0.2)),
            trace_events=trace,
            reservoir_capacity=int(data.get("reservoir_capacity", 4096)),
        )

    def with_overrides(self, **kwargs) -> "ServingScenario":
        """Copy of the scenario with ``kwargs`` fields replaced."""
        return replace(self, **kwargs)


class ServingSession:
    """Runs one :class:`ServingScenario` on one configured system.

    ``obs`` opts into the observability layer (:mod:`repro.obs`): with
    tracing on, a :class:`~repro.obs.Tracer` is attached to the
    environment before the front-end is built and left on
    :attr:`tracer` after the run; with metrics on, the standard serving
    instrument set samples into a timeline exposed as :attr:`metrics`
    and serialized into the report's ``metrics`` field.  ``obs=None``
    (the default) is the byte-identical pre-observability path.
    """

    def __init__(self, scenario: ServingScenario, config: PlatformConfig,
                 obs: Optional[ObsConfig] = None):
        self.scenario = scenario
        self.config = config
        self.obs = obs
        self.tracer: Optional[Tracer] = None
        self.metrics = None
        # The last run's front-end: learned-policy snapshots and the
        # learning-curve evaluator read its records after the run.
        self.frontend: Optional[ServingFrontend] = None

    def _build_backend(self) -> ServingBackend:
        return build_serving_backend(self.scenario, self.config)

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #
    def run(self) -> ServingReport:
        """Execute the scenario end to end; returns the report."""
        scenario = self.scenario
        obs = self.obs
        backend = self._build_backend()
        env = backend.env
        if obs is not None and obs.tracing:
            # Attached before the front-end/backend capture env.tracer.
            self.tracer = Tracer(obs.trace_capacity)
            env.tracer = self.tracer
        tenants = [t.name for t in scenario.tenants]
        tracker = SLOTracker(tenants,
                             reservoir_capacity=scenario.reservoir_capacity,
                             seed=scenario.seed)
        frontend = ServingFrontend(env, backend, scenario.make_admission(),
                                   tracker, tenants,
                                   dispatch=scenario.make_dispatch())
        self.frontend = frontend
        bus: Optional[MetricsBus] = None
        if obs is not None and obs.metrics:
            bus = MetricsBus(cadence_s=obs.cadence_s)
            wire_serving_metrics(bus, tracker, frontend, backend)
            bus.install(env)
        requests = scenario.make_arrivals().generate(scenario.duration_s)
        backend.start()
        env.spawn(arrival_driver(env, frontend, requests))
        drive_until_settled(env, tracker, len(requests),
                            scenario.duration_s)
        if bus is not None:
            # Final sample at settle time, then retire the sampler
            # (de-scheduling its pending tick) so the drain loop below
            # terminates — and ends at the same clock reading as an
            # unobserved run.
            bus.stop(env)
        backend.finish()
        # Drain the remaining background work (Storengine flush/GC on the
        # accelerator) so energy accounting covers every byte served.
        env.run()
        report = self._assemble_report(backend, tracker)
        if bus is not None:
            self.metrics = bus.timeline
            report.metrics = bus.timeline.to_dict()
        report.learned = learned_snapshot({
            "admission": frontend.admission,
            "dispatch": frontend.dispatch_policy})
        return report

    # ------------------------------------------------------------------ #
    # Report assembly                                                     #
    # ------------------------------------------------------------------ #
    def _assemble_report(self, backend: ServingBackend,
                         tracker: SLOTracker) -> ServingReport:
        # The environment is quiescent by now, so the clock reads the end
        # of the last piece of work (completion or background drain).
        stats_fn = getattr(backend, "scheduler_stats", None)
        return assemble_serving_report(
            self.scenario, self.config.system, tracker,
            makespan_s=backend.env.now, energy_j=backend.energy_j,
            scheduler_stats=stats_fn() if stats_fn else None)


def run_serving(scenario: ServingScenario,
                config: Optional[PlatformConfig] = None,
                system: Optional[str] = None,
                obs: Optional[ObsConfig] = None) -> ServingReport:
    """Convenience wrapper: run one scenario on one system."""
    if config is None:
        config = PlatformConfig(system=system) if system \
            else PlatformConfig()
    elif system is not None:
        config = config.with_overrides(system=system)
    return ServingSession(scenario, config, obs=obs).run()
