"""Fast-forward serving session: exact warm-up, analytic cruise.

:class:`FastForwardServingSession` wires the generic machinery of
:mod:`repro.sim.fastforward` to the serving pipeline.  The run splits in
two phases:

1. **Warm-up (exact).**  Arrivals inside the warm-up window run on the
   unmodified event engine — real front-end, real admission controller,
   real accelerator backend — and are driven to full settlement.  The
   completed records calibrate the analytic model: empirical
   service-time pools per ``(tenant, workload)``, per-completion energy,
   and the admission EWMA state.
2. **Cruise (analytic).**  If the steady-state detector accepts the
   warm-up data, the remaining arrivals advance through an
   :class:`~repro.sim.fastforward.AnalyticServer` — the *same* admission
   controller decides each arrival against an analytic front-end view,
   service times are resampled from the measured pools, and the SLO
   tracker ingests the resulting completions through the batch-observe
   path.  The engine clock jumps to the last completion via
   ``Environment.advance_to`` — no events are scheduled at all.

The contract (documented in PERFORMANCE.md): with fast-forward
*disabled* (the default) the session defers to the exact
:class:`~repro.serve.session.ServingSession` and reports are
byte-identical; when the detector *refuses* (bursty MMPP/diurnal/trace
arrivals, unstable backlog, too few warm-up samples) the whole scenario
re-runs exactly and only the report's ``fastforward`` annotation records
the refusal; when it *engages*, report-level metrics (goodput, p50–p99.9,
energy) agree with the exact engine within the documented tolerance.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Tuple, Union

from ..platform.config import PlatformConfig
from ..policy import policy_is_learned
from ..sim.fastforward import (
    AnalyticServer,
    FastForwardConfig,
    ServiceTimeModel,
    SteadyStateDetector,
)
from .frontend import ServingFrontend
from .report import ServingReport
from .request import RequestRecord, RequestStatus
from .session import (
    ServingScenario,
    ServingSession,
    arrival_driver,
    assemble_serving_report,
    drive_until_settled,
)
from .slo import SLOTracker


class _AnalyticFrontendView:
    """FrontendView over the analytic queue state.

    Presents the same observables the real front-end offers admission
    policies — per-tenant queue depth, total backlog, in-flight count,
    dispatch capacity — but derives them from the analytic schedule:
    a request is *queued* from arrival until its computed start time and
    *in flight* from start to completion.  Completions popped by
    :meth:`advance` are returned so the session can feed the admission
    controller's service-time EWMA in completion order, exactly as the
    exact engine would.
    """

    def __init__(self, tenants, capacity: int):
        self._depth = {tenant: 0 for tenant in tenants}
        self._total_queued = 0
        self._in_flight = 0
        self._capacity = capacity
        self._starts: List[Tuple[float, int, str]] = []
        self._dones: List[Tuple[float, int, float]] = []
        self._seq = 0

    def advance(self, now_s: float) -> List[float]:
        """Apply all starts/completions due by ``now_s``.

        Returns the service times of requests that completed, in
        completion order (the admission EWMA feed).  Starts pop first:
        a completion implies its start is due too.
        """
        starts = self._starts
        while starts and starts[0][0] <= now_s:
            _, _, tenant = heappop(starts)
            self._depth[tenant] -= 1
            self._total_queued -= 1
            self._in_flight += 1
        done: List[float] = []
        dones = self._dones
        while dones and dones[0][0] <= now_s:
            done.append(heappop(dones)[2])
            self._in_flight -= 1
        return done

    def on_dispatched(self, tenant: str, start_s: float, done_s: float,
                      service_s: float) -> None:
        """Register one admitted request's analytic schedule."""
        self._seq += 1
        heappush(self._starts, (start_s, self._seq, tenant))
        heappush(self._dones, (done_s, self._seq, service_s))
        self._depth[tenant] += 1
        self._total_queued += 1

    # -- FrontendView protocol ------------------------------------------------
    def queue_depth(self, tenant: str) -> int:
        """Requests waiting (not yet started) for ``tenant``."""
        return self._depth[tenant]

    @property
    def total_queued(self) -> int:
        """Waiting requests across all tenants."""
        return self._total_queued

    @property
    def in_flight(self) -> int:
        """Requests between analytic start and completion."""
        return self._in_flight

    @property
    def dispatch_capacity(self) -> int:
        """Concurrent-dispatch bound (the backend's capacity)."""
        return self._capacity


class FastForwardServingSession(ServingSession):
    """ServingSession with calibrated steady-state fast-forward."""

    def __init__(self, scenario: ServingScenario, config: PlatformConfig,
                 fastforward: Optional[FastForwardConfig] = None,
                 obs=None):
        super().__init__(scenario, config, obs=obs)
        self.fastforward = fastforward if fastforward is not None \
            else FastForwardConfig(enabled=True)

    def run(self) -> ServingReport:
        """Execute the scenario, fast-forwarding when safe."""
        ff = self.fastforward
        if not ff.enabled:
            # Off is the default and the golden-checked path: defer to
            # the exact engine wholesale, byte-identical reports.
            return super().run()
        reason = self._static_refusal()
        if reason is None:
            result = self._attempt_fastforward()
            if isinstance(result, ServingReport):
                return result
            reason = result
        # Refused: the scenario re-runs exactly from scratch so the
        # numbers match the exact engine bit-for-bit; only the
        # annotation records why fast-forward did not engage.
        report = super().run()
        report.fastforward = {"engaged": False, "reason": reason}
        return report

    # ------------------------------------------------------------------ #
    # Engagement preconditions                                            #
    # ------------------------------------------------------------------ #
    def _static_refusal(self) -> Optional[str]:
        """Scenario-level refusals, decided before any simulation."""
        scenario = self.scenario
        if self.obs is not None and self.obs.enabled:
            # The analytic cruise schedules no events, so there is
            # nothing to trace or sample — observability forces the
            # exact engine (which the fallback run then instruments).
            return ("observability (tracing/metrics bus) requires the "
                    "exact engine")
        if scenario.process != "poisson":
            return (f"arrival process {scenario.process!r} is not "
                    f"stationary (only 'poisson' engages)")
        admission_spec = scenario.effective_admission_spec()
        if policy_is_learned("admission", admission_spec):
            # A learned controller's decisions depend on the feedback
            # stream; the analytic cruise delivers none, so its dynamic
            # behavior would silently freeze — always run exactly.
            return (f"learned admission policy {admission_spec.name!r} "
                    f"adapts online (exact engine required)")
        if scenario.dispatch_spec is not None \
                and policy_is_learned("dispatch", scenario.dispatch_spec):
            return (f"learned dispatch policy "
                    f"{scenario.dispatch_spec.name!r} adapts online "
                    f"(exact engine required)")
        if scenario.dispatch_spec is not None \
                and scenario.dispatch_spec.name != "round_robin":
            return (f"non-default dispatch policy "
                    f"{scenario.dispatch_spec.name!r}")
        if self.fastforward.warmup_s >= scenario.duration_s:
            return "warm-up window covers the entire run"
        return None

    # ------------------------------------------------------------------ #
    # The two-phase run                                                   #
    # ------------------------------------------------------------------ #
    def _attempt_fastforward(self) -> Union[ServingReport, str]:
        """Warm up exactly, then cruise analytically.

        Returns the finished report, or a refusal reason string if the
        steady-state detector rejects the warm-up window (the caller
        then falls back to a from-scratch exact run).
        """
        scenario = self.scenario
        ff = self.fastforward
        requests = scenario.make_arrivals().generate(scenario.duration_s)
        warm = [r for r in requests if r.arrival_s < ff.warmup_s]
        rest = requests[len(warm):]
        if not rest:
            return "no arrivals after the warm-up window"

        # -- phase 1: exact warm-up -------------------------------------
        backend = self._build_backend()
        env = backend.env
        tenants = [t.name for t in scenario.tenants]
        tracker = SLOTracker(
            tenants, reservoir_capacity=scenario.reservoir_capacity,
            seed=scenario.seed)
        admission = scenario.make_admission()
        frontend = ServingFrontend(env, backend, admission, tracker,
                                   tenants,
                                   dispatch=scenario.make_dispatch())
        backend.start()
        env.spawn(arrival_driver(env, frontend, warm))
        drive_until_settled(env, tracker, len(warm), scenario.duration_s,
                            label="fast-forward warm-up")
        t_settle = env.now

        completed = sorted(
            (r for r in frontend.records
             if r.status is RequestStatus.COMPLETED),
            key=lambda r: r.completed_at)
        services = [r.service_s for r in completed]
        latencies = [r.latency_s for r in completed]
        detector = SteadyStateDetector(min_samples=ff.min_samples,
                                       rel_tol=ff.rel_tol)
        engage, verdict = detector.assess(services, latencies)
        if not engage:
            return verdict

        # Retire the backend while the queues are empty: Storengine
        # stops and flushes, so the environment goes fully quiescent and
        # the warm-up energy figure covers every byte it served.
        backend.finish()
        env.run()
        t_drained = env.now
        warm_completed = tracker.aggregate.completed
        warm_energy = backend.energy_j
        energy_per_completion = warm_energy / warm_completed

        # -- phase 2: analytic cruise -----------------------------------
        # Calibrate on the post-transient suffix only: service times
        # measured while the in-flight mix was still filling up carry
        # less scheduler interference than steady state and would bias
        # the analytic throughput optimistic.
        model = ServiceTimeModel(f"fastforward-{scenario.seed}")
        for record in completed[detector.transient_cut(len(completed)):]:
            model.observe(record.tenant, record.request.workload,
                          record.service_s)
        capacity = frontend.dispatch_capacity
        server = AnalyticServer(capacity, free_at=t_settle)
        view = _AnalyticFrontendView(tenants, capacity)
        analytic: List[RequestRecord] = []
        for request in rest:
            now = request.arrival_s
            for service_s in view.advance(now):
                admission.observe_service_time(service_s)
            tracker.on_offered(request.tenant)
            if not admission.admit(request, view):
                tracker.on_rejected(request.tenant)
                continue
            tracker.on_admitted(request.tenant)
            service_s = model.draw(request.tenant, request.workload)
            start, done = server.submit(now, service_s)
            view.on_dispatched(request.tenant, start, done, service_s)
            analytic.append(RequestRecord(
                request=request, status=RequestStatus.COMPLETED,
                admitted_at=now, dispatched_at=start, completed_at=done))

        # Feed completions in completion order through the batch-observe
        # path — the same relative sample order per reservoir as the
        # exact engine's per-completion feed.
        analytic.sort(key=lambda r: (r.completed_at, r.request.request_id))
        tracker.on_completed_batch(analytic)

        # The exact engine's makespan includes the post-completion
        # background drain (Storengine flush/GC); the warm-up measured
        # that tail directly (t_drained - t_settle), so extrapolate it
        # past the last analytic completion.
        drain_tail = t_drained - t_settle
        makespan = max(t_drained, server.last_completion + drain_tail)
        env.advance_to(makespan)
        stats_fn = getattr(backend, "scheduler_stats", None)
        report = assemble_serving_report(
            scenario, self.config.system, tracker,
            makespan_s=env.now,
            energy_j=warm_energy + energy_per_completion * len(analytic),
            scheduler_stats=stats_fn() if stats_fn else None)
        report.fastforward = {
            "engaged": True,
            "reason": "steady",
            "warmup_s": ff.warmup_s,
            "warmup_completed": warm_completed,
            "analytic_requests": len(rest),
            "analytic_completed": len(analytic),
            "calibration_samples": model.sample_count,
        }
        return report


def run_serving_fastforward(
        scenario: ServingScenario,
        config: Optional[PlatformConfig] = None,
        fastforward: Optional[FastForwardConfig] = None,
        obs=None) -> ServingReport:
    """Convenience wrapper: one scenario, fast-forward enabled."""
    if config is None:
        config = PlatformConfig()
    return FastForwardServingSession(scenario, config, fastforward,
                                     obs=obs).run()


__all__ = [
    "FastForwardConfig",
    "FastForwardServingSession",
    "run_serving_fastforward",
]
