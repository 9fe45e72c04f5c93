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

What crosses the process boundary is packed flat
(:func:`pack_shard_result` / :func:`unpack_shard_result`): arrivals ship
as request indices into the fork-shared request list (never as pickled
request objects), completions as parallel typed arrays with interned
tenant indices and no reconstructible fields (the per-shard sequence is
the list position), evicted backlogs as ``(request index, admitted_at,
reroutes)`` triples, and admission outcomes as per-tenant count deltas —
only touched tenants are ever shipped.

The coordinator keeps its accounts in the same
:class:`~repro.cluster.report.FleetLedger` the serial dispatcher uses, and
builds its shards and per-device reports with the serial session's
:func:`~repro.cluster.session.build_shard` and
:func:`~repro.cluster.session.device_report`.

Determinism contract: the run is seed-reproducible and **independent of
the worker count** — one worker and eight workers produce byte-identical
:class:`~repro.cluster.report.ClusterReport`s, and the in-process
``workers=1`` path executes the exact same coordinator logic on the
exact same payloads (the wire codec is lossless).  For
snapshot-independent placement the report is additionally byte-identical
to the serial session's whenever the fleet still has work at the final
epoch boundary (the normal operating regime for every shipped benchmark
and sweep): forced fault boundaries reproduce the serial reroute
interleaving exactly (faults at the same instant are replayed one by one
in fault order), shard clocks are never advanced past their last
processed event (:meth:`~repro.sim.engine.Environment.run_events`), and
the drain runs in two phases — settle every shard, compute the fleet
settle time, then finish every backend at that shared instant like the
serial session does.  In a run that goes fully idle before the horizon,
background poller events can leave a shard's clock past the fleet settle
time, and the single ``makespan_s`` value may then differ from serial;
every other field still matches.

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
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

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

#: Completion event crossing the epoch boundary:
#: (completed_at, tenant_index, latency_s, violated).  The per-shard
#: sequence number is the position in the epoch's list — it is not
#: shipped.
CompletionEvent = Tuple[float, int, float, bool]

#: One evicted backlog record on the wire: (request index into the
#: shared arrival list, admitted_at, reroute count).  Everything else
#: about the record is reconstructed from the request it points at.
EvictedRecord = Tuple[int, Optional[float], int]


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

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ParallelConfig":
        """Rebuild from :meth:`to_dict` output (workers stays auto)."""
        return cls(epoch_s=float(data.get("epoch_s", 0.25)))


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
    """One shard's settlements since the last epoch boundary.

    The serial session's fleet tracker hears completions in-process;
    across a process boundary they are instead buffered here — the
    buffer subscribes to the shard front-end's completion stream — as
    flat tuples with interned tenant indices.  Admission outcomes are
    counted by the epoch arrival feeder from the record each submit
    returns, as per-tenant deltas keyed by tenant index: a tenant that
    saw no traffic this epoch costs zero bytes.  ``last_settled_s`` is
    the simulated time of the most recent settlement (completion or
    rejection): the coordinator takes the fleet-wide max as the settle
    instant at which every backend is finished, mirroring the serial
    session's finish-at-settle-time.
    """

    def __init__(self, tenant_index: Dict[str, int]):
        self._tenant_index = tenant_index
        self.last_settled_s = 0.0
        self.admitted: Dict[int, int] = {}
        self.rejected: Dict[int, int] = {}
        self.completions: List[CompletionEvent] = []

    def on_submitted(self, record: RequestRecord, now: float) -> None:
        """Count one admission outcome at simulated time ``now``."""
        index = self._tenant_index[record.tenant]
        if record.status is RequestStatus.REJECTED:
            self.rejected[index] = self.rejected.get(index, 0) + 1
            self.last_settled_s = now
        else:
            self.admitted[index] = self.admitted.get(index, 0) + 1

    def on_complete(self, record: RequestRecord) -> None:
        """Completion stream hook: buffer one completion."""
        self.completions.append(
            (record.completed_at, self._tenant_index[record.tenant],
             record.latency_s, record.slo_met is False))
        self.last_settled_s = record.completed_at

    def drain(self) -> Tuple[Dict[int, int], Dict[int, int],
                             List[CompletionEvent]]:
        """Hand over and reset this epoch's buffered events."""
        out = (self.admitted, self.rejected, self.completions)
        self.admitted, self.rejected, self.completions = {}, {}, []
        return out


class _FleetCompletion:
    """Duck-typed completion record for the fleet tracker's feed."""

    __slots__ = ("tenant", "latency_s", "slo_met")

    def __init__(self, tenant: str, latency_s: float, violated: bool):
        self.tenant = tenant
        self.latency_s = latency_s
        self.slo_met = not violated


class _ShardGroup:
    """One worker's slice of the fleet: shards on private environments.

    Used identically by worker processes and by the in-process
    (``workers=1``) path, so both execute the exact same code per shard
    — the determinism contract across worker counts reduces to the
    coordinator merging payloads in canonical order (the wire codec the
    forked path adds on top is lossless).
    """

    def __init__(self, scenario: ServingScenario, cluster: ClusterConfig,
                 indices: Sequence[int], requests: Sequence[Request]):
        self.scenario = scenario
        self.cluster = cluster
        self.requests = requests
        tenant_index = {tenant.name: i
                        for i, tenant in enumerate(scenario.tenants)}
        self.shards: Dict[int, DeviceShard] = {}
        self._buffers: Dict[int, _EpochBuffer] = {}
        self._evicted: Dict[int, List[Tuple[int, List[EvictedRecord]]]] = {}
        self._health_events: Dict[int, List[List[Any]]] = {}
        self._self_draining: Dict[int, bool] = {}
        self._closed: Dict[int, bool] = {}
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
            self._buffers[index] = buffer = _EpochBuffer(tenant_index)
            shard.frontend.completion_hooks.append(buffer.on_complete)
            self._evicted[index] = []
            self._health_events[index] = []
            self._self_draining[index] = False
            self._closed[index] = False
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
        for ordinal, fault in faults:
            delay = fault.time_s - env.now
            if delay > 0:
                yield env.timeout(delay)
            state = DeviceHealth(fault.state)
            self._health_events[shard.index].append(
                [ordinal, env.now, shard.index, state.value])
            evicted = shard.apply_health(
                state, self.cluster.degraded_capacity_factor)
            if evicted:
                self._evicted[shard.index].append(
                    (ordinal, [_pack_record(r) for r in evicted]))
            if state is not DeviceHealth.FAILED:
                self._self_draining[shard.index] = False

    # -- per-epoch execution --------------------------------------------
    def run_epoch(self, end_s: float, at_s: float,
                  arrivals: Dict[int, Sequence[int]],
                  adopted: Dict[int, Sequence[EvictedRecord]],
                  restore: Sequence[int]) -> Dict[int, Dict[str, Any]]:
        """Advance every owned shard to ``end_s``; ship the boundary.

        ``arrivals`` are indices into the shared request list;
        ``adopted`` backlogs (evicted at ``at_s``, the previous
        boundary) are re-enqueued at exactly ``at_s``, which is when the
        serial dispatcher moves them.  The clock is never forced to
        ``end_s``: after the burst each shard's clock reads its last
        processed event, exactly like the serial shared clock would.
        """
        results: Dict[int, Dict[str, Any]] = {}
        for index in sorted(self.shards):
            shard = self.shards[index]
            env = shard.backend.env
            if index in restore:
                # Self-drain fallback: no routable peer exists, so the
                # failed device works off its own backlog (serial
                # semantics); don't re-evict it at the epoch boundary.
                self._self_draining[index] = True
            batch = adopted.get(index)
            if batch or index in restore:
                env.spawn(self._adopt_at(shard, at_s, batch or (),
                                         index in restore))
            mine = arrivals.get(index)
            if mine:
                env.spawn(_epoch_arrivals(env, shard.frontend,
                                          self._buffers[index],
                                          self.requests, mine))
            env.run_events(end_s)
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

    def _adopt_at(self, shard: DeviceShard, at_s: float,
                  batch: Sequence[EvictedRecord], restore: bool):
        """Deliver rerouted backlog at exactly the eviction instant."""
        env = shard.backend.env
        delay = at_s - env.now
        if delay > 0:
            yield env.timeout(delay)
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
        shard = self.shards[index]
        admitted, rejected, completions = self._buffers[index].drain()
        evicted = self._evicted[index]
        self._evicted[index] = []
        events = self._health_events[index]
        self._health_events[index] = []
        return {
            "snapshot": _snapshot(shard),
            "admitted": admitted,
            "rejected": rejected,
            "completions": completions,
            "evicted": evicted,
            "health_events": events,
        }

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
            if index in restore:
                self._self_draining[index] = True
            batch = adopted.get(index)
            if batch or index in restore:
                env.spawn(self._adopt_at(shard, at_s, batch or (),
                                         index in restore))
                # Deliver before closing: the adoption event must land
                # while the dispatch loop is still alive.
                env.run_events(at_s if at_s > env.now else env.now)
            if not self._closed[index]:
                frontend.close()
                self._closed[index] = True
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
        work (Storengine flush/GC) to empty — the same clock readings
        and event order the serial session produces.
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
        return results


def _pack_record(record: RequestRecord) -> EvictedRecord:
    """Wire form of one evicted record: everything else is derivable."""
    return (record.request.request_id, record.admitted_at, record.reroutes)


def _epoch_arrivals(env: Environment, frontend: ServingFrontend,
                    buffer: _EpochBuffer, requests: Sequence[Request],
                    indices: Sequence[int]):
    """Feed one epoch's routed arrivals into one shard's front-end."""
    for request_index in indices:
        request = requests[request_index]
        delay = request.arrival_s - env.now
        if delay > 0:
            yield env.timeout(delay)
        buffer.on_submitted(frontend.submit(request), env.now)


def _snapshot(shard: DeviceShard) -> Tuple[int, int, int, float, str]:
    """Epoch-boundary view: (queued, in_flight, capacity, energy, health)."""
    return (shard.queued, shard.in_flight, shard.capacity,
            shard.energy_j, shard.health.value)


# --------------------------------------------------------------------- #
# Wire codec (forked path only; the in-process path skips it)            #
# --------------------------------------------------------------------- #
def pack_shard_result(payload: Dict[str, Any]) -> Tuple:
    """Flatten one shard's boundary payload for the worker pipe.

    Completions become four parallel typed arrays (machine doubles,
    16-bit tenant indices, one flag byte each) instead of a list of
    per-event tuples; counters are already sparse deltas and evictions
    already index triples, so they ship as plain tuples.  Lossless:
    ``unpack_shard_result(pack_shard_result(p))`` folds identically to
    ``p``, which is what keeps the forked and in-process paths
    byte-identical.
    """
    completions = payload["completions"]
    return (
        payload["snapshot"],
        tuple(sorted(payload["admitted"].items())),
        tuple(sorted(payload["rejected"].items())),
        array("d", [c[0] for c in completions]),
        array("H", [c[1] for c in completions]),
        array("d", [c[2] for c in completions]),
        bytes(bool(c[3]) for c in completions),
        tuple((ordinal, tuple(records))
              for ordinal, records in payload["evicted"]),
        tuple(tuple(event) for event in payload["health_events"]),
        payload.get("settled_s"),
    )


def unpack_shard_result(packed: Tuple) -> Dict[str, Any]:
    """Rebuild the boundary payload :func:`pack_shard_result` flattened."""
    (snapshot, admitted, rejected, times, tenants, latencies, violated,
     evicted, events, settled_s) = packed
    payload: Dict[str, Any] = {
        "snapshot": snapshot,
        "admitted": dict(admitted),
        "rejected": dict(rejected),
        "completions": [
            (times[i], tenants[i], latencies[i], bool(violated[i]))
            for i in range(len(times))],
        "evicted": [(ordinal, list(records))
                    for ordinal, records in evicted],
        "health_events": [list(event) for event in events],
    }
    if settled_s is not None:
        payload["settled_s"] = settled_s
    return payload


class _EpochShardView:
    """Placement-policy view of one shard, coordinator side.

    Carries the latest epoch-boundary snapshot; routing a request bumps
    ``queued`` so policies like join-shortest-queue spread the epoch's
    arrivals instead of dogpiling the shortest snapshot.
    """

    __slots__ = ("index", "queued", "in_flight", "capacity", "energy_j",
                 "health")

    def __init__(self, index: int, capacity: int):
        self.index = index
        self.queued = 0
        self.in_flight = 0
        self.capacity = capacity
        self.energy_j = 0.0
        self.health = DeviceHealth.HEALTHY

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

    A command names the :class:`_ShardGroup` method to run; boundary
    payloads go back packed, the final per-device reports as they are.
    """
    scenario, cluster, indices, requests = _FORK_INIT[slot]
    try:
        group = _ShardGroup(scenario, cluster, indices, requests)
        conn.send(("ready", group.snapshots()))
        while True:
            command, *args = conn.recv()
            if command == "stop":
                return
            results = getattr(group, command)(*args)
            if command != "finalize":
                results = {index: pack_shard_result(payload)
                           for index, payload in results.items()}
            conn.send((command, results))
    except BaseException as error:  # ship the failure to the coordinator
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, OSError):
            pass
        raise


def _share(arg: Any, owned: Sequence[int]) -> Any:
    """One worker's share of a broadcast argument.

    Per-device mappings and device lists keep only the worker's own
    devices; scalars (boundary instants) go to every worker unchanged.
    """
    if isinstance(arg, dict):
        return {index: value for index, value in arg.items()
                if index in owned}
    if isinstance(arg, list):
        return [index for index in arg if index in owned]
    return arg


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

        def broadcast(command: str, *args) -> Dict[int, Dict[str, Any]]:
            return getattr(group, command)(*args)

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

        def broadcast(command: str, *args) -> Dict[int, Dict[str, Any]]:
            for indices, parent in zip(chunks, pipes):
                parent.send((command,
                             *[_share(arg, indices) for arg in args]))
            merged: Dict[int, Dict[str, Any]] = {}
            for parent in pipes:
                for index, payload in _recv(parent).items():
                    if command != "finalize":
                        payload = unpack_shard_result(payload)
                    merged[index] = payload
            return merged

        try:
            snapshots: Dict[int, Tuple] = {}
            for parent in pipes:
                snapshots.update(_recv(parent))
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
        only decides how ``broadcast(command, *args)`` reaches the shard
        groups, which is what makes worker count provably irrelevant to
        the results.
        """
        while True:
            step = coordinator.next_step()
            if step is None:
                break
            coordinator.fold_epoch(broadcast("run_epoch", *step))
        adopted, restore = coordinator.take_reroutes()
        settle_results = broadcast("settle", coordinator.last_end,
                                   adopted, restore)
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
        return coordinator.assemble(broadcast("finalize", settle_s))


def _recv(parent) -> Any:
    """Receive one worker reply, surfacing shipped failures."""
    kind, payload = parent.recv()
    if kind == "error":
        raise RuntimeError(f"cluster worker failed: {payload}")
    return payload


class _Coordinator:
    """Epoch-boundary routing and reroute placement over a fleet ledger."""

    def __init__(self, scenario: ServingScenario, cluster: ClusterConfig,
                 parallel: ParallelConfig, snapshots: Dict[int, Tuple],
                 requests: Sequence[Request]):
        self.scenario = scenario
        self.cluster = cluster
        self.tenants = [t.name for t in scenario.tenants]
        self._tenant_rank = {name: i for i, name in enumerate(self.tenants)}
        fleet = SLOTracker(
            self.tenants, reservoir_capacity=scenario.reservoir_capacity,
            seed=scenario.seed)
        # Built exactly like the serial dispatcher's ledger (device
        # count, scenario seed), so stateful placement
        # cursors (round-robin) follow the same sequence.
        self.ledger = FleetLedger(fleet, cluster, cluster.device_count,
                                  seed=scenario.seed)
        self.views = {index: _EpochShardView(index, snapshots[index][2])
                      for index in sorted(snapshots)}
        for index, snapshot in snapshots.items():
            self.views[index].apply(snapshot)
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
    def next_step(self) -> Optional[Tuple[float, float, Dict[int, array],
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
            if self._cursor >= len(self.requests) \
                    and not self.adopted and not is_fault:
                self._boundary += 1
                continue
            break
        else:
            return None
        self._boundary += 1
        self.epochs_run += 1
        at_s = self.last_end
        adopted, restore = self.take_reroutes()
        arrivals: Dict[int, array] = {}
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
                arrivals.setdefault(view.index, array("I")).append(
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
        tenants = self.tenants
        before = {index: view.health for index, view in self.views.items()}
        completions: List[Tuple[float, int, int, int, float, bool]] = []
        events: List[List[Any]] = []
        evicted: Dict[int, Tuple[int, list]] = {}
        for index in sorted(results):
            payload = results[index]
            self.views[index].apply(payload["snapshot"])
            # Count deltas are order-insensitive, so they are applied
            # directly instead of replaying one outcome per request.
            for tenant_index, count in payload["admitted"].items():
                ledger.settle(index, tenants[tenant_index], True, count)
            for tenant_index, count in payload["rejected"].items():
                ledger.settle(index, tenants[tenant_index], False, count)
            for seq, (done, tenant, latency, violated) \
                    in enumerate(payload["completions"]):
                completions.append(
                    (done, index, seq, tenant, latency, violated))
            for ordinal, records in payload["evicted"]:
                evicted[ordinal] = (index, records)
            events.extend(payload["health_events"])
        self._replay_faults(before, sorted(events), evicted)
        self._feed_completions(completions)

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

    def _feed_completions(
            self, completions: List[Tuple[float, int, int, int,
                                          float, bool]]) -> None:
        # Canonical merge order — (time, shard, shard-sequence) — makes
        # the fleet reservoir's sample stream identical no matter how
        # shards were partitioned over workers.
        completions.sort(key=lambda c: (c[0], c[1], c[2]))
        tenants = self.tenants
        fleet = self.ledger.fleet
        for _, _, _, tenant_index, latency, violated in completions:
            fleet.on_completed(
                _FleetCompletion(tenants[tenant_index], latency, violated))

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


def run_cluster_parallel(
        scenario: ServingScenario, cluster: ClusterConfig,
        parallel: Optional[ParallelConfig] = None) -> ClusterReport:
    """Convenience wrapper: run one scenario on one fleet in parallel."""
    return ParallelClusterSession(scenario, cluster, parallel).run()


__all__ = [
    "ParallelClusterSession",
    "ParallelConfig",
    "build_epoch_schedule",
    "pack_shard_result",
    "parallel_refusal",
    "run_cluster_parallel",
    "unpack_shard_result",
]
