"""Parallel cluster runner: device shards in worker processes.

The serial :class:`~repro.cluster.session.ClusterSession` advances every
device of the fleet on one shared event heap — N devices' events
interleave through a single priority queue on a single core.  But the
devices are *almost* independent: they only interact through routing
decisions (placement) and failure reroutes.  This module exploits that:

* every :class:`~repro.cluster.health.DeviceShard` gets its **own**
  :class:`~repro.sim.engine.Environment`, and shards are partitioned
  over worker processes (Linux ``fork`` — workers inherit the scenario,
  cluster config and the full generated request list through fork and
  never unpickle any of them);
* cross-shard interaction is quantized into **epochs** of simulated
  time.  The coordinator routes each epoch's arrivals using the
  placement policy over epoch-boundary shard snapshots, the workers
  advance their shards to the epoch end independently, and completions,
  health transitions and evicted backlogs flow back at the boundary.

The epoch schedule is derived deterministically from config alone
(:func:`build_epoch_schedule`): a boundary is forced at every fault
time — so evictions reroute at exactly the simulated instant the serial
dispatcher reroutes them — plus the arrival horizon.  When the placement
policy is *snapshot-independent* (it routes without reading shard load,
e.g. round-robin or tenant-affinity; see
:data:`~repro.cluster.placement.PlacementPolicy.snapshot_dependent`),
those forced boundaries are the whole schedule: a healthy fleet runs the
entire scenario in one coordinator round-trip.  Snapshot-dependent
policies (JSQ, least-outstanding, power-aware) additionally keep the
fixed ``epoch_s`` grid so routing keeps observing fresh queue state.

A forked worker sends back exactly what its :class:`_ShardGroup` method
returned — plain dicts, tuples and lists, pickled by the pipe — so the
forked and in-process paths fold the same payloads.  Arrivals ship as
request indices into the fork-shared request list (never as pickled
request objects), completions as ``(completed_at, tenant, latency_s,
slo_met)`` tuples, evicted backlogs as ``(request index, admitted_at,
reroutes)`` triples, and admission outcomes as per-tenant count deltas.
PERFORMANCE.md records the measured traffic and why it is not packed
further.

The coordinator keeps its accounts in the same
:class:`~repro.cluster.report.FleetLedger` the serial dispatcher uses, and
builds its shards and per-device reports with the serial session's
:func:`~repro.cluster.session.build_shard` and
:func:`~repro.cluster.session.device_report`.

Determinism contract: the run is seed-reproducible and **independent of
the worker count** — one worker and eight workers produce byte-identical
:class:`~repro.cluster.report.ClusterReport`s.  For snapshot-independent
placement the report is additionally byte-identical to the serial
session's:

* forced fault boundaries reproduce the serial reroute interleaving
  exactly (faults at the same instant are replayed one by one in fault
  order);
* shard clocks are never advanced past their last processed event
  (:meth:`~repro.sim.engine.Environment.run_events`);
* once the last arrival is routed, no shard runs past the fleet's settle
  instant: each shard stops on its own last settlement, and only if
  another shard is still busy at the boundary do the idle ones advance
  to it.  A fleet that goes idle before the horizon therefore stops
  where the serial session stops, and a later fault fires in the final
  drain, as in serial;
* the drain runs in two phases — settle every shard, compute the fleet
  settle time, then finish every backend at that shared instant like
  the serial session does.

Refusals: :func:`parallel_refusal` names the run shapes this runner does
not take — observability (:mod:`repro.obs`; per-worker span rings and
metric samples are not yet shipped and merged into one fleet timeline),
elastic fleets and learned placement.  The session raises on them, and
:class:`~repro.eval.cluster.ClusterExperimentSpec` runs them on the
serial session instead.  Learned admission and dispatch are taken: they
live in each shard's front-end and learn from that shard's completions
alone, exactly as in the serial session.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import threading
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ..platform.cluster import ClusterConfig
from ..policy import policy_is_learned
from ..serve.report import ServingReport
from ..serve.request import Request, RequestRecord, RequestStatus
from ..serve.session import ServingScenario, drive_watched
from ..serve.frontend import ServingFrontend
from ..serve.slo import SLOTracker
from ..sim.engine import Environment
from .health import DeviceHealth, DeviceShard
from .placement import placement_snapshot_dependent
from .report import ClusterReport, FleetLedger
from .session import build_shard, device_report

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import ObsConfig

#: One evicted backlog record on the wire: (request index into the
#: shared arrival list, admitted_at, reroute count).  Everything else
#: about the record is reconstructed from the request it points at.
EvictedRecord = Tuple[int, Optional[float], int]

#: One completion on the wire: (completed_at, tenant, latency_s,
#: slo_met).  The per-shard sequence number is the list position.
CompletionEvent = Tuple[float, str, float, bool]


class _Completion(NamedTuple):
    """The fields :meth:`~repro.serve.slo.SLOTracker.on_completed` reads,
    built by the coordinator from one :data:`CompletionEvent`.  Shipping
    plain tuples instead keeps about 4 bytes per completion off the pipe.
    """

    tenant: str
    latency_s: float
    slo_met: bool


@dataclass(frozen=True)
class ParallelConfig:
    """Execution knobs for the parallel cluster runner.

    ``epoch_s`` is the cross-shard exchange quantum for
    snapshot-dependent placement (routing sees fresher queue state with
    shorter epochs), so it is the only field serialized into experiment
    cache keys.  ``workers`` is pure execution strategy — 0 means auto
    (one worker per device, bounded by the CPU count), 1 forces the
    in-process path — and never affects results.
    """

    workers: int = 0
    epoch_s: float = 0.25

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = auto)")
        if self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive")

    def to_dict(self) -> Dict[str, object]:
        """Cache-key form: only the semantic field."""
        return {"epoch_s": self.epoch_s}


def build_epoch_schedule(scenario: ServingScenario, cluster: ClusterConfig,
                         parallel: ParallelConfig
                         ) -> List[Tuple[float, bool]]:
    """The deterministic epoch-boundary schedule for one run.

    Returns ``[(end_s, is_fault_time), ...]`` in ascending order.  A
    boundary is forced at every fault time so evicted backlogs reroute
    at exactly the instant the serial dispatcher reroutes them, plus the
    arrival horizon.  Snapshot-dependent placement additionally keeps
    the fixed ``epoch_s`` grid (fresh load snapshots are what it routes
    on); snapshot-independent placement drops it, since routing cannot
    observe the difference.  The schedule is derived from config alone,
    never from runtime state, so it is identical across worker counts
    and reruns.
    """
    horizon = scenario.duration_s
    fault_times = {fault.time_s for fault in cluster.faults}
    boundaries = set(fault_times)
    boundaries.add(horizon)
    if placement_snapshot_dependent(cluster.placement):
        steps = max(1, math.ceil(horizon / parallel.epoch_s))
        boundaries.update((step + 1) * parallel.epoch_s
                          for step in range(steps))
    return [(end_s, end_s in fault_times)
            for end_s in sorted(boundaries)]


class _EpochBuffer:
    """One shard's settlements and faults since the last epoch boundary.

    The serial session's fleet tracker hears completions in-process;
    across a process boundary they are instead buffered here — the
    buffer subscribes to the shard front-end's completion stream.
    Admission outcomes are counted by the epoch arrival feeder from the
    record each submit returns, as per-tenant deltas: a tenant that saw
    no traffic this epoch is not shipped.  ``last_settled_s`` is the
    simulated time of the most recent settlement (completion or
    rejection): the coordinator takes the fleet-wide max as the settle
    instant at which every backend is finished, mirroring the serial
    session's finish-at-settle-time.  ``outstanding`` counts the requests
    delivered or due to this shard that have neither settled nor been
    evicted.  The shard's fault driver adds health events and evicted
    backlogs, both tagged with the fault's ordinal.
    """

    def __init__(self) -> None:
        self.last_settled_s = 0.0
        self.outstanding = 0
        self.admitted: Dict[str, int] = {}
        self.rejected: Dict[str, int] = {}
        self.completions: List[CompletionEvent] = []
        self.evicted: List[Tuple[int, List[EvictedRecord]]] = []
        self.health_events: List[List[Any]] = []

    def idle(self) -> bool:
        """No work left until a boundary brings more.  An evicted backlog
        is not settled: it still has to be rerouted at the boundary."""
        return self.outstanding == 0 and not self.evicted

    def on_submitted(self, record: RequestRecord, now: float) -> None:
        """Count one admission outcome at simulated time ``now``."""
        tenant = record.tenant
        if record.status is RequestStatus.REJECTED:
            self.rejected[tenant] = self.rejected.get(tenant, 0) + 1
            self.last_settled_s = now
            self.outstanding -= 1
        else:
            self.admitted[tenant] = self.admitted.get(tenant, 0) + 1

    def on_complete(self, record: RequestRecord) -> None:
        """Completion stream hook: buffer one completion."""
        self.completions.append((record.completed_at, record.tenant,
                                 record.latency_s, record.slo_met))
        self.last_settled_s = record.completed_at
        self.outstanding -= 1

    def drain(self) -> Dict[str, Any]:
        """Hand over and reset this epoch's buffered events."""
        out = {"admitted": self.admitted, "rejected": self.rejected,
               "completions": self.completions, "evicted": self.evicted,
               "health_events": self.health_events}
        self.admitted, self.rejected = {}, {}
        self.completions, self.evicted, self.health_events = [], [], []
        return out


class _ShardGroup:
    """One worker's slice of the fleet: shards on private environments.

    Used identically by worker processes and by the in-process
    (``workers=1``) path, so both execute the exact same code per shard
    — the determinism contract across worker counts reduces to the
    coordinator merging payloads in canonical order.  Every method takes
    arguments for the whole fleet and skips the devices it does not own.
    """

    def __init__(self, scenario: ServingScenario, cluster: ClusterConfig,
                 indices: Sequence[int], requests: Sequence[Request]):
        self.scenario = scenario
        self.cluster = cluster
        self.requests = requests
        self.shards: Dict[int, DeviceShard] = {}
        self._buffers: Dict[int, _EpochBuffer] = {}
        self._self_draining: Dict[int, bool] = {}
        # Global fault ordinals: the serial dispatcher fires all faults
        # from one driver over the stable time-sorted config list, so
        # same-time faults keep their config order.  Tagging every
        # eviction batch and health event with the fault's position in
        # that ordering lets the coordinator reproduce the serial
        # sequence exactly when merging across shards.
        order = sorted(range(len(cluster.faults)),
                       key=lambda i: cluster.faults[i].time_s)
        ordinal = {original: position
                   for position, original in enumerate(order)}
        for index in indices:
            shard = build_shard(scenario, cluster, Environment(), index)
            self.shards[index] = shard
            self._buffers[index] = buffer = _EpochBuffer()
            shard.frontend.completion_hooks.append(buffer.on_complete)
            self._self_draining[index] = False
            shard.backend.start()
            mine = [(ordinal[i], fault)
                    for i, fault in enumerate(cluster.faults)
                    if fault.device == index]
            mine.sort(key=lambda entry: (entry[1].time_s, entry[0]))
            if mine:
                shard.backend.env.spawn(self._fault_driver(shard, mine))

    def snapshots(self) -> Dict[int, Tuple[int, int, int, float, str]]:
        """Every owned shard's current placement view."""
        return {index: _snapshot(shard)
                for index, shard in self.shards.items()}

    # -- in-simulation fault handling -----------------------------------
    def _fault_driver(self, shard: DeviceShard, faults):
        env = shard.backend.env
        buffer = self._buffers[shard.index]
        for ordinal, fault in faults:
            if fault.time_s > env.now:
                yield env.timeout_at(fault.time_s)
            state = DeviceHealth(fault.state)
            buffer.health_events.append(
                [ordinal, env.now, shard.index, state.value])
            evicted = shard.apply_health(
                state, self.cluster.degraded_capacity_factor)
            if evicted:
                buffer.outstanding -= len(evicted)
                buffer.evicted.append(
                    (ordinal, [(record.request.request_id,
                                record.admitted_at, record.reroutes)
                               for record in evicted]))
            if state is not DeviceHealth.FAILED:
                self._self_draining[shard.index] = False

    # -- per-epoch execution --------------------------------------------
    def _deliver(self, index: int, at_s: float,
                 arrivals: Dict[int, Sequence[int]],
                 adopted: Dict[int, Sequence[EvictedRecord]],
                 restore: Sequence[int]) -> bool:
        """Schedule one boundary's deliveries into shard ``index``.

        ``arrivals`` are indices into the shared request list;
        ``adopted`` backlogs (evicted at ``at_s``, the previous
        boundary) are re-enqueued at exactly ``at_s``, which is when the
        serial dispatcher moves them.  Returns whether a backlog is
        adopted.
        """
        shard = self.shards[index]
        env = shard.backend.env
        buffer = self._buffers[index]
        restoring = index in restore
        if restoring:
            # Self-drain fallback: no routable peer exists, so the
            # failed device works off its own backlog (serial
            # semantics); don't re-evict it at the epoch boundary.
            self._self_draining[index] = True
        batch = adopted.get(index, ())
        mine = arrivals.get(index, ())
        buffer.outstanding += len(batch) + len(mine)
        if batch or restoring:
            env.spawn(self._adopt_at(shard, at_s, batch, restoring))
        if mine:
            env.spawn(_epoch_arrivals(env, shard.frontend, buffer,
                                      self.requests, mine))
        return bool(batch) or restoring

    def run_epoch(self, end_s: float, at_s: float,
                  arrivals: Dict[int, Sequence[int]],
                  adopted: Dict[int, Sequence[EvictedRecord]],
                  restore: Sequence[int]) -> Dict[int, Dict[str, Any]]:
        """Advance every owned shard to ``end_s``; ship the boundary.

        The clock is never forced to ``end_s``: after the burst each
        shard's clock reads its last processed event, exactly like the
        serial shared clock would.
        """
        results: Dict[int, Dict[str, Any]] = {}
        for index in sorted(self.shards):
            shard = self.shards[index]
            self._deliver(index, at_s, arrivals, adopted, restore)
            shard.backend.env.run_events(end_s)
            if shard.health is DeviceHealth.FAILED \
                    and not self._self_draining[index] \
                    and shard.frontend.total_queued:
                # Forced fault boundaries let routing observe every
                # failure at its exact time, so a failed device can only
                # hold queued work routed on a stale snapshot: the epoch
                # schedule missed a fault, and the run would diverge
                # from serial.
                raise RuntimeError(
                    f"device {index} is failed but still has "
                    f"{shard.frontend.total_queued} queued requests at "
                    f"the epoch boundary t={end_s:.6f}s: the epoch "
                    f"schedule missed a fault boundary")
            results[index] = self._boundary_payload(index)
        return results

    def run_until_idle(self, end_s: float, at_s: float,
                       arrivals: Dict[int, Sequence[int]],
                       adopted: Dict[int, Sequence[EvictedRecord]],
                       restore: Sequence[int]) -> Dict[int, bool]:
        """Advance every owned shard to ``end_s`` or its last settlement.

        The epoch step once every arrival is routed: a shard whose work
        all settles before ``end_s`` stops on that settlement, as the
        serial session stops on the fleet's last one.  Returns which
        shards are idle and keeps the payloads buffered.  While any shard
        is still busy, the coordinator follows up with :meth:`run_epoch`
        to the same ``end_s``, which brings the idle shards there too.
        """
        idle: Dict[int, bool] = {}
        for index in sorted(self.shards):
            self._deliver(index, at_s, arrivals, adopted, restore)
            buffer = self._buffers[index]
            self.shards[index].backend.env.run_events(end_s,
                                                      done=buffer.idle)
            idle[index] = buffer.idle()
        return idle

    def _adopt_at(self, shard: DeviceShard, at_s: float,
                  batch: Sequence[EvictedRecord], restore: bool):
        """Deliver rerouted backlog at exactly the eviction instant."""
        env = shard.backend.env
        if at_s > env.now:
            yield env.timeout_at(at_s)
        if restore:
            # Serial fallback restores the failed device's capacity the
            # moment it self-requeues (the dispatch loop must not wedge).
            shard.frontend.capacity_limit = None
        for request_index, admitted_at, reroutes in batch:
            record = RequestRecord(request=self.requests[request_index])
            record.admitted_at = admitted_at
            record.reroutes = reroutes
            shard.frontend.enqueue_record(record)

    def _boundary_payload(self, index: int) -> Dict[str, Any]:
        return {"snapshot": _snapshot(self.shards[index]),
                **self._buffers[index].drain()}

    # -- two-phase drain -------------------------------------------------
    def settle(self, at_s: float,
               adopted: Dict[int, Sequence[EvictedRecord]],
               restore: Sequence[int]) -> Dict[int, Dict[str, Any]]:
        """Phase one of the drain: run every owned shard to idle.

        Feeds any backlog still in flight between shards (evicted at the
        final boundary ``at_s``), closes the front-ends and runs each
        shard until it has no queued or in-flight work.  Reports the
        shard's last settlement instant so the coordinator can compute
        the fleet settle time — the instant :meth:`finalize` finishes
        every backend at, mirroring the serial session's single
        finish-at-settle-time.
        """
        results: Dict[int, Dict[str, Any]] = {}
        for index in sorted(self.shards):
            shard = self.shards[index]
            env = shard.backend.env
            frontend = shard.frontend
            if self._deliver(index, at_s, {}, adopted, restore):
                # Deliver before closing: the adoption event must land
                # while the dispatch loop is still alive.
                env.run_events(at_s if at_s > env.now else env.now)
            frontend.close()
            tracker = shard.tracker
            drive_watched(
                env, lambda: frontend.drained, lambda: tracker.settled,
                self.scenario.duration_s, f"device {index}",
                lambda: f"{tracker.settled} requests settled while draining")
            payload = self._boundary_payload(index)
            payload["settled_s"] = self._buffers[index].last_settled_s
            results[index] = payload
        return results

    def finalize(self, settle_s: float) -> Dict[int, Dict[str, Any]]:
        """Phase two: finish every backend at the fleet settle time.

        Each shard first replays its idle timeline up to ``settle_s``
        (events the serial run processed before calling ``finish()``),
        then finishes its backend and drains the remaining background
        work (Storengine flush/GC, faults after the settle instant) to
        empty — the same clock readings and event order the serial
        session produces.
        """
        results: Dict[int, Dict[str, Any]] = {}
        for index in sorted(self.shards):
            shard = self.shards[index]
            env = shard.backend.env
            if env.now < settle_s:
                env.run(until=settle_s)
            shard.backend.finish()
            env.run()
            payload = self._boundary_payload(index)
            payload.update({
                "report": device_report(self.scenario, shard,
                                        env.now).to_dict(),
                "makespan_s": env.now,
                "energy_j": shard.backend.energy_j,
                "health": shard.health.value,
            })
            results[index] = payload
            env.close()
        return results


def _epoch_arrivals(env: Environment, frontend: ServingFrontend,
                    buffer: _EpochBuffer, requests: Sequence[Request],
                    indices: Sequence[int]):
    """Feed one epoch's routed arrivals into one shard's front-end."""
    for request_index in indices:
        request = requests[request_index]
        if request.arrival_s > env.now:
            yield env.timeout_at(request.arrival_s)
        buffer.on_submitted(frontend.submit(request), env.now)


def _snapshot(shard: DeviceShard) -> Tuple[int, int, int, float, str]:
    """Epoch-boundary view: (queued, in_flight, capacity, energy, health)."""
    return (shard.queued, shard.in_flight, shard.capacity,
            shard.energy_j, shard.health.value)


class _EpochShardView:
    """Placement-policy view of one shard, coordinator side.

    Carries the latest epoch-boundary snapshot; routing a request bumps
    ``queued`` so policies like join-shortest-queue spread the epoch's
    arrivals instead of dogpiling the shortest snapshot.
    """

    __slots__ = ("index", "queued", "in_flight", "capacity", "energy_j",
                 "health")

    def __init__(self, index: int,
                 snapshot: Tuple[int, int, int, float, str]):
        self.index = index
        self.apply(snapshot)

    def apply(self, snapshot: Tuple[int, int, int, float, str]) -> None:
        """Fold one epoch-boundary snapshot into the view."""
        queued, in_flight, capacity, energy_j, health = snapshot
        self.queued = queued
        self.in_flight = in_flight
        self.capacity = capacity
        self.energy_j = energy_j
        self.health = DeviceHealth(health)

    @property
    def routable(self) -> bool:
        """Whether the coordinator may route new traffic here."""
        return self.health is not DeviceHealth.FAILED


# --------------------------------------------------------------------- #
# Worker process plumbing (fork-by-slot, like the orchestrator pool)     #
# --------------------------------------------------------------------- #
# The worker inherits (scenario, cluster, indices, requests) through
# fork and builds its shard group in its own process — backends and
# request objects never cross the process boundary in either direction.
# The global is only populated while the processes are being spawned.
_FORK_INIT: Dict[int, Tuple[ServingScenario, ClusterConfig,
                            Tuple[int, ...], Sequence[Request]]] = {}
_FORK_INIT_LOCK = threading.Lock()


def _worker_main(slot: int, conn) -> None:
    """Worker loop: build the shard group, serve coordinator commands.

    A command names the :class:`_ShardGroup` method to run; the worker
    sends back exactly what the method returned.
    """
    scenario, cluster, indices, requests = _FORK_INIT[slot]
    try:
        group = _ShardGroup(scenario, cluster, indices, requests)
        conn.send(("ready", group.snapshots()))
        while True:
            command, *args = conn.recv()
            if command == "stop":
                return
            conn.send((command, getattr(group, command)(*args)))
    except BaseException as error:  # ship the failure to the coordinator
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, OSError):
            pass
        raise


def parallel_refusal(scenario: ServingScenario, cluster: ClusterConfig,
                     obs: Optional["ObsConfig"] = None) -> Optional[str]:
    """Why the epoch-parallel runner cannot run this shape, or ``None``.

    The one predicate behind every serial fallback: the parallel session
    raises on a refusal, and the experiment spec runs refused shapes on
    the serial session (and keeps them out of the parallel cache key).
    """
    if obs is not None and obs.enabled:
        # Per-worker span rings and metric samples are not shipped and
        # merged into one fleet timeline.
        return "observability (repro.obs)"
    if cluster.elastic:
        # The epoch runner pre-partitions a fixed device set across
        # workers; a fleet that resizes mid-run has no stable partition.
        return "elastic clusters (autoscaler_spec set)"
    if policy_is_learned("placement", cluster.placement):
        # The placement bandit learns in the coordinator from the fleet
        # completion stream, which reaches it only at epoch boundaries —
        # later than the serial dispatcher routes on.  Learned admission
        # and dispatch live in each shard's front-end and see exactly
        # that shard's completions, so they run here unchanged.
        return f"learned placement {cluster.placement.name!r}"
    return None


class ParallelClusterSession:
    """Runs one scenario on a fleet, shards spread over processes."""

    def __init__(self, scenario: ServingScenario, cluster: ClusterConfig,
                 parallel: Optional[ParallelConfig] = None):
        refusal = parallel_refusal(scenario, cluster)
        if refusal is not None:
            raise ValueError(f"ParallelClusterSession does not support "
                             f"{refusal}; use ClusterSession")
        self.scenario = scenario
        self.cluster = cluster
        self.parallel = parallel if parallel is not None \
            else ParallelConfig()
        #: Execution-strategy stats of the last run (epoch count, mode,
        #: worker count).  Deliberately *not* part of the report: the
        #: report is byte-identical across execution strategies, so
        #: strategy metadata lives on the session.
        self.execution_stats: Dict[str, Any] = {}

    def _effective_workers(self) -> int:
        requested = self.parallel.workers
        if requested == 0:
            requested = os.cpu_count() or 1
        workers = min(requested, self.cluster.device_count)
        if workers <= 1:
            return workers
        # Fork is what makes the no-pickling worker bootstrap safe; on
        # platforms without it, fall back to the in-process path (the
        # results are identical by contract).  Daemonic processes (e.g.
        # the experiment orchestrator's pool workers) cannot fork
        # children at all, so a parallel spec executing inside the pool
        # silently takes the in-process path too.
        if not (sys.platform.startswith("linux")
                and "fork" in multiprocessing.get_all_start_methods()):
            return 1
        if multiprocessing.current_process().daemon:
            return 1
        return workers

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #
    def run(self) -> ClusterReport:
        """Execute the scenario across worker processes; returns report."""
        workers = self._effective_workers()
        device_count = self.cluster.device_count
        # Generated once, before any fork: workers inherit the list via
        # copy-on-write and the coordinator ships bare indices into it.
        requests = self.scenario.make_arrivals().generate(
            self.scenario.duration_s)
        if workers <= 1:
            return self._run_inline(tuple(range(device_count)), requests)
        # Striped partition: worker k owns devices k, k+W, k+2W, ... —
        # which devices land where is irrelevant to the results (the
        # coordinator merges canonically), striping just balances
        # heterogeneous fleets.
        chunks = [tuple(range(start, device_count, workers))
                  for start in range(workers)]
        return self._run_forked(chunks, requests)

    def _record_stats(self, coordinator: "_Coordinator", mode: str,
                      workers: int) -> None:
        self.execution_stats = {
            "mode": mode,
            "workers": workers,
            "epoch_s": self.parallel.epoch_s,
            "epochs": coordinator.epochs_run,
            "boundaries": len(coordinator.schedule),
        }

    def _run_inline(self, indices: Tuple[int, ...],
                    requests: Sequence[Request]) -> ClusterReport:
        group = _ShardGroup(self.scenario, self.cluster, indices, requests)
        coordinator = _Coordinator(self.scenario, self.cluster,
                                   self.parallel, group.snapshots(),
                                   requests)

        def broadcast(method, *args) -> Dict[int, Any]:
            return method(group, *args)

        report = self._drive(coordinator, broadcast)
        self._record_stats(coordinator, "inline", 1)
        return report

    def _run_forked(self, chunks: List[Tuple[int, ...]],
                    requests: Sequence[Request]) -> ClusterReport:
        ctx = multiprocessing.get_context("fork")
        pipes = []
        processes = []
        with _FORK_INIT_LOCK:
            _FORK_INIT.clear()
            for slot, indices in enumerate(chunks):
                _FORK_INIT[slot] = (self.scenario, self.cluster, indices,
                                    requests)
            try:
                for slot, indices in enumerate(chunks):
                    parent, child = ctx.Pipe()
                    process = ctx.Process(target=_worker_main,
                                          args=(slot, child),
                                          daemon=True)
                    process.start()
                    child.close()
                    pipes.append(parent)
                    processes.append(process)
            finally:
                _FORK_INIT.clear()

        def receive(slot: int, phase: str) -> Any:
            return _recv(pipes[slot], slot, chunks[slot], processes[slot],
                         phase)

        def broadcast(method, *args) -> Dict[int, Any]:
            for parent in pipes:
                parent.send((method.__name__, *args))
            # Every phase's first argument is the instant it runs to.
            phase = f"in {method.__name__} to t={args[0]!r}s"
            merged: Dict[int, Any] = {}
            for slot in range(len(pipes)):
                merged.update(receive(slot, phase))
            return merged

        try:
            snapshots: Dict[int, Tuple] = {}
            for slot in range(len(pipes)):
                snapshots.update(receive(slot, "while building its shards"))
            coordinator = _Coordinator(self.scenario, self.cluster,
                                       self.parallel, snapshots, requests)
            report = self._drive(coordinator, broadcast)
            for parent in pipes:
                parent.send(("stop",))
            self._record_stats(coordinator, "forked", len(chunks))
            return report
        finally:
            for parent in pipes:
                parent.close()
            for process in processes:
                process.join(timeout=5.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)

    def _drive(self, coordinator: "_Coordinator",
               broadcast) -> ClusterReport:
        """The shared coordinator loop: epochs, settle, finalize.

        One code path for the in-process and forked modes — the mode
        only decides how ``broadcast(method, *args)`` runs a
        :class:`_ShardGroup` method on the shard groups, which is what
        makes worker count provably irrelevant to the results.
        """
        while True:
            step = coordinator.next_step()
            if step is None:
                break
            if coordinator.arrivals_routed:
                # No arrival is left to route: if the whole fleet
                # settles before this boundary, the run stops there, as
                # serial does, and later faults fire in the final drain.
                idle = broadcast(_ShardGroup.run_until_idle, *step)
                if all(idle.values()):
                    break
                end_s = step[0]
                step = (end_s, end_s, {}, {}, [])
            coordinator.fold_epoch(broadcast(_ShardGroup.run_epoch, *step))
        adopted, restore = coordinator.take_reroutes()
        settle_results = broadcast(_ShardGroup.settle,
                                   coordinator.last_end, adopted, restore)
        coordinator.fold_epoch(settle_results)
        if coordinator.adopted:
            # Every fault time is an epoch boundary, so an eviction can
            # only surface at a boundary fold — reaching here means the
            # schedule missed a fault.
            raise RuntimeError(
                "parallel cluster run did not settle: backlog evicted "
                "during the drain phase (fault outside the epoch "
                "schedule)")
        settle_s = coordinator.settle_time(settle_results)
        return coordinator.assemble(broadcast(_ShardGroup.finalize, settle_s))


#: Host seconds to wait for a dead worker's exit code.
_REAP_TIMEOUT_S = 1.0


def _recv(parent, slot: int, indices: Tuple[int, ...], process,
          phase: str) -> Any:
    """Receive one worker reply, surfacing shipped failures and deaths.

    A worker that raises ships its error before exiting.  One that dies
    without a word (killed, ``os._exit``) only closes its pipe; the
    bare ``EOFError``/``OSError`` becomes a ``RuntimeError`` naming the
    worker slot, its devices, its exit code and the phase it died in.
    """
    try:
        kind, payload = parent.recv()
    except (EOFError, OSError) as error:
        process.join(timeout=_REAP_TIMEOUT_S)
        raise RuntimeError(
            f"cluster worker {slot} (devices {list(indices)}) died "
            f"{phase}: exit code {process.exitcode}") from error
    if kind == "error":
        raise RuntimeError(f"cluster worker {slot} failed: {payload}")
    return payload


class _Coordinator:
    """Epoch-boundary routing and reroute placement over a fleet ledger."""

    def __init__(self, scenario: ServingScenario, cluster: ClusterConfig,
                 parallel: ParallelConfig, snapshots: Dict[int, Tuple],
                 requests: Sequence[Request]):
        self.scenario = scenario
        self.cluster = cluster
        tenants = [t.name for t in scenario.tenants]
        self._tenant_rank = {name: i for i, name in enumerate(tenants)}
        fleet = SLOTracker(
            tenants, reservoir_capacity=scenario.reservoir_capacity,
            seed=scenario.seed)
        # Built exactly like the serial dispatcher's ledger (device
        # count, scenario seed), so stateful placement
        # cursors (round-robin) follow the same sequence.
        self.ledger = FleetLedger(fleet, cluster, cluster.device_count,
                                  seed=scenario.seed)
        self.views = {index: _EpochShardView(index, snapshots[index])
                      for index in sorted(snapshots)}
        self.requests = requests
        self.schedule = build_epoch_schedule(scenario, cluster, parallel)
        self._boundary = 0
        self.last_end = 0.0
        #: Placed backlog awaiting delivery at ``last_end``: target
        #: device -> [(request index, admitted_at, reroutes)], in serial
        #: placement order.  ``restore`` lists the failed devices with no
        #: routable peer, which re-adopt and self-drain their own.
        self.adopted: Dict[int, List[EvictedRecord]] = {}
        self.restore: List[int] = []
        self.epochs_run = 0
        self._cursor = 0

    # -- epoch planning --------------------------------------------------
    @property
    def arrivals_routed(self) -> bool:
        """Whether every arrival of the run has been routed."""
        return self._cursor >= len(self.requests)

    def next_step(self) -> Optional[Tuple[float, float, Dict[int, List[int]],
                                          Dict[int, list], List[int]]]:
        """The next epoch command, or None when epochs are exhausted.

        Once arrivals are routed and no reroutes are circulating, grid
        boundaries are skipped but every remaining *fault* boundary
        still runs: a fault striking a still-draining backlog must
        reroute at its exact simulated time, and the fold of its
        boundary is where the eviction surfaces.
        """
        while self._boundary < len(self.schedule):
            end_s, is_fault = self.schedule[self._boundary]
            if self.arrivals_routed and not self.adopted and not is_fault:
                self._boundary += 1
                continue
            break
        else:
            return None
        self._boundary += 1
        self.epochs_run += 1
        at_s = self.last_end
        adopted, restore = self.take_reroutes()
        arrivals: Dict[int, List[int]] = {}
        ledger = self.ledger
        views = list(self.views.values())
        cursor = self._cursor
        requests = self.requests
        while cursor < len(requests) \
                and requests[cursor].arrival_s < end_s:
            request = requests[cursor]
            cursor += 1
            view = ledger.route(request, views, request.arrival_s)
            if view is not None:
                view.queued += 1
                arrivals.setdefault(view.index, []).append(
                    request.request_id)
        self._cursor = cursor
        self.last_end = end_s
        return end_s, at_s, arrivals, adopted, restore

    def take_reroutes(self) -> Tuple[Dict[int, list], List[int]]:
        """Hand over the placed backlog for delivery at ``last_end``."""
        out = (self.adopted, self.restore)
        self.adopted, self.restore = {}, []
        return out

    # -- epoch results ----------------------------------------------------
    def fold_epoch(self, results: Dict[int, Dict[str, Any]]) -> None:
        """Merge one boundary's payloads in canonical shard order."""
        ledger = self.ledger
        before = {index: view.health for index, view in self.views.items()}
        completions: List[Tuple[float, int, int, _Completion]] = []
        events: List[List[Any]] = []
        evicted: Dict[int, Tuple[int, list]] = {}
        for index in sorted(results):
            payload = results[index]
            self.views[index].apply(payload["snapshot"])
            # Count deltas are order-insensitive, so they are applied
            # directly instead of replaying one outcome per request.
            for tenant, count in payload["admitted"].items():
                ledger.settle(index, tenant, True, count)
            for tenant, count in payload["rejected"].items():
                ledger.settle(index, tenant, False, count)
            for seq, (done, tenant, latency, slo_met) \
                    in enumerate(payload["completions"]):
                completions.append(
                    (done, index, seq, _Completion(tenant, latency, slo_met)))
            for ordinal, records in payload["evicted"]:
                evicted[ordinal] = (index, records)
            events.extend(payload["health_events"])
        self._replay_faults(before, sorted(events), evicted)
        # Canonical merge order — (time, shard, shard-sequence) — makes
        # the fleet reservoir's sample stream identical no matter how
        # shards were partitioned over workers.
        completions.sort(key=lambda c: c[:3])
        on_completed = ledger.fleet.on_completed
        for *_, completion in completions:
            on_completed(completion)

    def _replay_faults(self, before: Dict[int, DeviceHealth],
                       events: List[List[Any]],
                       evicted: Dict[int, Tuple[int, list]]) -> None:
        """Apply one boundary's faults in serial order, placing evictions.

        The serial fault driver applies the faults of one instant one by
        one, each eviction placed on the devices routable right after
        its own fault.  The views' health is rewound to the previous
        boundary and stepped forward per fault, in fault-ordinal order,
        so each eviction sees exactly that routable set.
        """
        for index, health in before.items():
            self.views[index].health = health
        for ordinal, time_s, device, state in events:
            self.ledger.health_events.append((time_s, device, state))
            view = self.views[device]
            failing = state == DeviceHealth.FAILED.value \
                and view.health is not DeviceHealth.FAILED
            view.health = DeviceHealth(state)
            if failing:
                _, records = evicted.pop(ordinal, (device, []))
                self._evict(device, records)

    def _evict(self, origin: int, records: List[EvictedRecord]) -> None:
        """Place one failed device's queued backlog.

        Mirrors the serial dispatcher's ``set_health``: the backlog is
        the device's own evicted queue plus whatever was placed on it
        earlier at this instant, in the order ``evict_queued`` reads the
        serial queue (per tenant in front-end order, the device's own
        records first).  A real reroute bumps the record's reroute
        count; with no routable peer the origin self-drains, uncounted.
        Static policies' ``on_reroute`` is a no-op, so it is not
        replayed here (learned placement never reaches this runner).
        """
        placed = self.adopted.pop(origin, [])
        if origin in self.restore:
            self.restore.remove(origin)
        else:
            self.views[origin].queued -= len(placed)
        if placed:
            rank = self._tenant_rank
            requests = self.requests
            records = sorted([*records, *placed],
                             key=lambda r: rank[requests[r[0]].tenant])
        if not records:
            return
        targets = [view for view in self.views.values() if view.routable]
        if not targets:
            # No routable peer: the failed origin self-drains
            # (capacity restored worker-side), serial semantics.
            self.adopted[origin] = list(records)
            self.restore.append(origin)
            return
        for request_index, admitted_at, reroutes in records:
            view = self.ledger.reroute(
                origin, self.requests[request_index], targets)
            view.queued += 1
            self.adopted.setdefault(view.index, []).append(
                (request_index, admitted_at, reroutes + 1))

    def settle_time(self, settle_results: Dict[int, Dict[str, Any]]
                    ) -> float:
        """The fleet settle instant: when serial calls ``finish()``.

        The serial session finishes every backend the moment the last
        request settles fleet-wide; that is the max over per-shard last
        settlements and coordinator-side edge rejections.
        """
        shard_settled = [payload["settled_s"]
                         for payload in settle_results.values()]
        return max([self.ledger.last_reject_s, *shard_settled],
                   default=0.0)

    # -- final assembly ----------------------------------------------------
    def assemble(self, finish: Dict[int, Dict[str, Any]]) -> ClusterReport:
        """Fold the drain-phase payloads and build the fleet report."""
        self.fold_epoch(finish)
        indices = sorted(finish)
        makespan_s = max(finish[index]["makespan_s"] for index in indices)
        devices = []
        for index in indices:
            device = ServingReport.from_dict(finish[index]["report"])
            # The serial session stamps every device report with the
            # shared final clock; per-shard clocks converge to the fleet
            # max by construction (finalize drains them all).
            device.makespan_s = makespan_s
            devices.append(device)
        return self.ledger.report(
            self.scenario, self.cluster, devices, makespan_s=makespan_s,
            energy_j=sum(finish[index]["energy_j"] for index in indices),
            final_health=[finish[index]["health"] for index in indices])


__all__ = [
    "ParallelClusterSession",
    "ParallelConfig",
    "build_epoch_schedule",
    "parallel_refusal",
]
