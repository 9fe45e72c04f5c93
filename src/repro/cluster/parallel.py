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
Whether adaptive widening is enabled never changes results — for
snapshot-independent policies routing cannot observe the difference, for
snapshot-dependent ones nothing widens.

What crosses the process boundary is packed flat
(:func:`pack_shard_result` / :func:`unpack_shard_result`): arrivals ship
as request indices into the fork-shared request list (never as pickled
request objects), completions as parallel typed arrays with interned
tenant indices and no reconstructible fields (the per-shard sequence is
the list position), evicted backlogs as ``(request index, admitted_at,
reroutes)`` triples, and admission outcomes as per-tenant count deltas —
only touched tenants are ever shipped.

Determinism contract: the run is seed-reproducible and **independent of
the worker count** — one worker and eight workers produce byte-identical
:class:`~repro.cluster.report.ClusterReport`s, and the in-process
``workers=1`` path executes the exact same coordinator logic on the
exact same payloads (the wire codec is lossless).  For
snapshot-independent placement the report is additionally byte-identical
to the serial session's whenever the fleet still has work at the final
epoch boundary (the normal operating regime for every shipped benchmark
and sweep): forced fault boundaries reproduce the serial reroute
interleaving exactly, shard clocks are never advanced past their last
processed event (:meth:`~repro.sim.engine.Environment.run_events`), and
the drain runs in two phases — settle every shard, compute the fleet
settle time, then finish every backend at that shared instant like the
serial session does.  In a run that goes fully idle before the horizon,
background poller events can leave a shard's clock past the fleet settle
time, and the single ``makespan_s`` value may then differ from serial;
every other field still matches.

Observability note: this runner does not support :mod:`repro.obs` —
per-worker tracers and metric samples cannot be stitched into one
coherent fleet timeline across process boundaries.  Runs that opt into
observability use the serial shared-environment session instead
(:class:`~repro.eval.cluster.ClusterExperimentSpec` makes that switch
automatically).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import threading
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..platform.cluster import ClusterConfig
from ..policy import build_policy, policy_is_learned
from ..serve.report import ServingReport
from ..serve.request import Request, RequestRecord, RequestStatus
from ..serve.session import (
    ServingScenario,
    assemble_serving_report,
    build_serving_backend,
)
from ..serve.frontend import ServingFrontend
from ..serve.slo import SLOTracker
from ..sim.engine import Environment
from .health import DeviceHealth, DeviceShard
from .placement import placement_snapshot_dependent
from .report import ClusterReport, assemble_cluster_report

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
    in-process path — and never affects results.  ``adaptive`` widens
    epochs to the next cross-shard event when the placement policy
    provably cannot observe the difference; it is execution strategy
    too (results are byte-identical either way) and stays out of the
    cache key.
    """

    workers: int = 0
    epoch_s: float = 0.25
    adaptive: bool = True

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
    on); snapshot-independent placement drops the grid when ``adaptive``
    is set — the schedule is derived from config alone, never from
    runtime state, so it is identical across worker counts and reruns.
    """
    horizon = scenario.duration_s
    fault_times = {fault.time_s for fault in cluster.faults
                   if fault.time_s > 0}
    boundaries = set(fault_times)
    boundaries.add(horizon)
    widen = parallel.adaptive and not placement_snapshot_dependent(
        cluster.placement_policy_spec())
    if not widen:
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
        tenants = [t.name for t in scenario.tenants]
        tenant_index = {name: i for i, name in enumerate(tenants)}
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
            config = cluster.devices[index]
            env = Environment()
            backend = build_serving_backend(scenario, config, env=env)
            # Reservoir seeds match the serial session's per-device
            # offsets, so shard-level accounting is byte-comparable.
            tracker = SLOTracker(
                tenants,
                reservoir_capacity=scenario.reservoir_capacity,
                seed=scenario.seed + 1000 * (index + 1))
            frontend = ServingFrontend(env, backend,
                                       scenario.make_admission(),
                                       tracker, tenants,
                                       dispatch=scenario.make_dispatch())
            shard = DeviceShard(index, config, backend, frontend, tracker)
            self.shards[index] = shard
            self._buffers[index] = buffer = _EpochBuffer(tenant_index)
            frontend.completion_hooks.append(buffer.on_complete)
            self._evicted[index] = []
            self._health_events[index] = []
            self._self_draining[index] = False
            self._closed[index] = False
            backend.start()
            mine = [(ordinal[i], fault)
                    for i, fault in enumerate(cluster.faults)
                    if fault.device == index]
            mine.sort(key=lambda entry: (entry[1].time_s, entry[0]))
            if mine:
                env.spawn(self._fault_driver(shard, mine))

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
            if state is DeviceHealth.FAILED \
                    and shard.health is DeviceHealth.FAILED:
                # Repeated failure must not re-zero a self-draining
                # device's capacity (mirrors the serial dispatcher).
                continue
            shard.apply_health(
                state, self.cluster.degraded_capacity_factor)
            if state is DeviceHealth.FAILED:
                evicted = shard.frontend.evict_queued()
                if evicted:
                    self._evicted[shard.index].append(
                        (ordinal, [_pack_record(r) for r in evicted]))
            else:
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
                    and not self._self_draining[index]:
                # Traffic routed here on a stale (pre-failure) snapshot
                # would otherwise sit queued forever: hand it back.
                # Unreachable with forced fault boundaries (routing
                # observes every failure at its exact time), kept as a
                # safety net for exotic schedules.
                evicted = shard.frontend.evict_queued()
                if evicted:
                    self._evicted[index].append(
                        (len(self.cluster.faults) + index,
                         [_pack_record(r) for r in evicted]))
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
        stall_horizon = max(60.0, 10.0 * self.scenario.duration_s)
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
            outcome = env.run_until(lambda: frontend.drained,
                                    progress=lambda: tracker.settled,
                                    stall_s=stall_horizon)
            if outcome == "drained":
                raise RuntimeError(
                    f"device {index} stalled while draining at "
                    f"t={env.now:.3f}s")
            if outcome == "stalled":
                raise RuntimeError(
                    f"device {index} made no progress for "
                    f"{stall_horizon:.0f} simulated seconds")
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
            stats_fn = getattr(shard.backend, "scheduler_stats", None)
            report = assemble_serving_report(
                self.scenario, shard.config.system, shard.tracker,
                makespan_s=env.now, energy_j=shard.backend.energy_j,
                scheduler_stats=stats_fn() if stats_fn else None)
            payload = self._boundary_payload(index)
            payload.update({
                "report": report.to_dict(),
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
    """Worker loop: build the shard group, serve epoch commands."""
    scenario, cluster, indices, requests = _FORK_INIT[slot]
    try:
        group = _ShardGroup(scenario, cluster, indices, requests)
        conn.send(("ready", {index: _snapshot(group.shards[index])
                             for index in indices}))
        while True:
            message = conn.recv()
            command = message[0]
            if command == "epoch":
                _, end_s, at_s, arrivals, adopted, restore = message
                results = group.run_epoch(end_s, at_s, arrivals,
                                          adopted, restore)
            elif command == "settle":
                _, at_s, adopted, restore = message
                results = group.settle(at_s, adopted, restore)
            elif command == "finalize":
                conn.send(("finalize", group.finalize(message[1])))
                continue
            else:
                return
            conn.send((command, {index: pack_shard_result(payload)
                                 for index, payload in results.items()}))
    except BaseException as error:  # ship the failure to the coordinator
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, OSError):
            pass
        raise


class ParallelClusterSession:
    """Runs one scenario on a fleet, shards spread over processes."""

    def __init__(self, scenario: ServingScenario, cluster: ClusterConfig,
                 parallel: Optional[ParallelConfig] = None):
        if cluster.elastic:
            # The epoch runner pre-partitions a fixed device set across
            # workers; a fleet that resizes mid-run has no stable
            # partition.  Elastic runs use the serial session.
            raise ValueError(
                "ParallelClusterSession does not support elastic "
                "clusters (autoscaler_spec set); use ClusterSession")
        learned = [
            f"{domain} {spec.name!r}" for domain, spec in (
                ("admission", scenario.effective_admission_spec()),
                ("dispatch", scenario.dispatch_spec),
                ("placement", cluster.placement_policy_spec()))
            if spec is not None and policy_is_learned(domain, spec)]
        if learned:
            # Learned policies accumulate state from the completion
            # feedback stream; per-worker copies of that state would
            # diverge from the serial model (the fleet placement bandit
            # most of all), breaking the worker-count-independence
            # contract.  Learned runs use the serial session.
            raise ValueError(
                f"ParallelClusterSession does not support learned "
                f"policies ({', '.join(learned)}); use ClusterSession")
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
            "adaptive": self.parallel.adaptive,
            "epochs": coordinator.epochs_run,
            "boundaries": len(coordinator.schedule),
        }

    def _run_inline(self, indices: Tuple[int, ...],
                    requests: Sequence[Request]) -> ClusterReport:
        group = _ShardGroup(self.scenario, self.cluster, indices, requests)
        snapshots = {index: _snapshot(group.shards[index])
                     for index in indices}
        coordinator = _Coordinator(self.scenario, self.cluster,
                                   self.parallel, snapshots, requests)
        report = self._drive(coordinator, group.run_epoch, group.settle,
                             group.finalize)
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
        try:
            snapshots: Dict[int, Tuple] = {}
            for parent in pipes:
                snapshots.update(_recv(parent))
            coordinator = _Coordinator(self.scenario, self.cluster,
                                       self.parallel, snapshots, requests)
            owner = {index: slot for slot, indices in enumerate(chunks)
                     for index in indices}

            def split(mapping: Dict[int, Any]) -> List[Dict[int, Any]]:
                per_slot: List[Dict[int, Any]] = \
                    [{} for _ in range(len(chunks))]
                for index, value in mapping.items():
                    per_slot[owner[index]][index] = value
                return per_slot

            def gather() -> Dict[int, Dict[str, Any]]:
                merged: Dict[int, Dict[str, Any]] = {}
                for parent in pipes:
                    merged.update({
                        index: unpack_shard_result(packed)
                        for index, packed in _recv(parent).items()})
                return merged

            def run_epoch(end_s, at_s, arrivals, adopted, restore):
                packed_arrivals = {index: array("I", ids)
                                   for index, ids in arrivals.items()}
                per_arr = split(packed_arrivals)
                per_adopt = split(adopted)
                for slot, parent in enumerate(pipes):
                    slot_restore = tuple(i for i in restore
                                         if owner[i] == slot)
                    parent.send(("epoch", end_s, at_s, per_arr[slot],
                                 per_adopt[slot], slot_restore))
                return gather()

            def settle(at_s, adopted, restore):
                per_adopt = split(adopted)
                for slot, parent in enumerate(pipes):
                    slot_restore = tuple(i for i in restore
                                         if owner[i] == slot)
                    parent.send(("settle", at_s, per_adopt[slot],
                                 slot_restore))
                return gather()

            def finalize(settle_s):
                for parent in pipes:
                    parent.send(("finalize", settle_s))
                merged: Dict[int, Dict[str, Any]] = {}
                for parent in pipes:
                    merged.update(_recv(parent))
                return merged

            report = self._drive(coordinator, run_epoch, settle, finalize)
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

    def _drive(self, coordinator: "_Coordinator", run_epoch, settle,
               finalize) -> ClusterReport:
        """The shared coordinator loop: epochs, settle, finalize.

        One code path for the in-process and forked modes — the mode
        only decides how the three callables execute, which is what
        makes worker count provably irrelevant to the results.
        """
        while True:
            step = coordinator.next_step()
            if step is None:
                break
            end_s, at_s, arrivals, adopted, restore = step
            coordinator.fold_epoch(
                run_epoch(end_s, at_s, arrivals, adopted, restore))
        adopted, restore = coordinator.route_settle()
        settle_results = settle(coordinator.last_end, adopted, restore)
        coordinator.fold_epoch(settle_results)
        if coordinator.pending_reroutes:
            # Every fault time is an epoch boundary, so an eviction can
            # only surface at a boundary fold — reaching here means the
            # schedule missed a fault.
            raise RuntimeError(
                "parallel cluster run did not settle: backlog evicted "
                "during the drain phase (fault outside the epoch "
                "schedule)")
        settle_s = coordinator.settle_time(settle_results)
        return coordinator.assemble(finalize(settle_s))


def _recv(parent) -> Any:
    """Receive one worker reply, surfacing shipped failures."""
    kind, payload = parent.recv()
    if kind == "error":
        raise RuntimeError(f"cluster worker failed: {payload}")
    return payload


class _Coordinator:
    """Epoch-boundary routing, fleet accounting and report assembly."""

    def __init__(self, scenario: ServingScenario, cluster: ClusterConfig,
                 parallel: ParallelConfig, snapshots: Dict[int, Tuple],
                 requests: Sequence[Request]):
        self.scenario = scenario
        self.cluster = cluster
        self.parallel = parallel
        self.tenants = [t.name for t in scenario.tenants]
        self.fleet = SLOTracker(
            self.tenants, reservoir_capacity=scenario.reservoir_capacity,
            seed=scenario.seed)
        # Constructed exactly like the serial dispatcher's policy
        # (device count, affinity salt, scenario seed), so stateful
        # cursors (round-robin) follow the same sequence.
        self.policy = build_policy(
            "placement", cluster.placement_policy_spec(),
            device_count=cluster.device_count,
            salt=cluster.affinity_salt, seed=scenario.seed)
        self.views = {index: _EpochShardView(index, snapshots[index][2])
                      for index in sorted(snapshots)}
        for index, snapshot in snapshots.items():
            self.views[index].apply(snapshot)
        self.requests = requests
        self.schedule = build_epoch_schedule(scenario, cluster, parallel)
        self._boundary = 0
        self.last_end = 0.0
        #: Evicted records awaiting placement: (origin, request index,
        #: admitted_at, reroutes), already in serial fault order.
        self.pending_reroutes: List[Tuple[int, int, Optional[float],
                                          int]] = []
        self.routed = {index: 0 for index in self.views}
        self.rerouted_in = {index: 0 for index in self.views}
        self.rerouted_out = {index: 0 for index in self.views}
        self.reroutes = 0
        self.cluster_rejected = 0
        self._last_reject_s = 0.0
        self.health_events: List[List[Any]] = []
        self.epochs_run = 0
        self._cursor = 0

    # -- epoch planning --------------------------------------------------
    def next_step(self) -> Optional[Tuple[float, float, Dict[int, list],
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
                    and not self.pending_reroutes and not is_fault:
                self._boundary += 1
                continue
            break
        else:
            return None
        self._boundary += 1
        self.epochs_run += 1
        at_s = self.last_end
        arrivals: Dict[int, list] = {}
        adopted: Dict[int, list] = {}
        restore: List[int] = []
        self._route_reroutes(adopted, restore)
        cursor = self._cursor
        requests = self.requests
        while cursor < len(requests) \
                and requests[cursor].arrival_s < end_s:
            request = requests[cursor]
            cursor += 1
            self.fleet.on_offered(request.tenant)
            routable = [view for view in self.views.values()
                        if view.routable]
            if not routable:
                self.cluster_rejected += 1
                self.fleet.on_rejected(request.tenant)
                self._last_reject_s = request.arrival_s
                continue
            view = self.policy.select(request, routable)
            view.queued += 1
            arrivals.setdefault(view.index, []).append(request.request_id)
        self._cursor = cursor
        self.last_end = end_s
        return end_s, at_s, arrivals, adopted, restore

    def route_settle(self) -> Tuple[Dict[int, list], List[int]]:
        """Place backlog still pending when the schedule ran out."""
        adopted: Dict[int, list] = {}
        restore: List[int] = []
        self._route_reroutes(adopted, restore)
        return adopted, restore

    def _route_reroutes(self, adopted: Dict[int, list],
                        restore: List[int]) -> None:
        """Place the previous boundary's evicted backlog.

        Mirrors the serial ``_reroute_backlog``: targets are the
        routable set at the fault instant (the views were updated by the
        fold of the fault's boundary), a real reroute bumps the record's
        reroute count, and the no-peer fallback self-requeues without
        counting.  Static policies' ``on_reroute`` is a no-op, so it is
        not replayed here (learned policies never reach this runner).
        """
        pending = self.pending_reroutes
        if not pending:
            return
        self.pending_reroutes = []
        targets = [view for view in self.views.values() if view.routable]
        for origin, request_index, admitted_at, reroutes in pending:
            if not targets:
                # No routable peer: the failed origin self-drains
                # (capacity restored worker-side), serial semantics.
                adopted.setdefault(origin, []).append(
                    (request_index, admitted_at, reroutes))
                if origin not in restore:
                    restore.append(origin)
                continue
            view = self.policy.select(self.requests[request_index],
                                      targets)
            view.queued += 1
            self.rerouted_in[view.index] += 1
            self.rerouted_out[origin] += 1
            self.reroutes += 1
            adopted.setdefault(view.index, []).append(
                (request_index, admitted_at, reroutes + 1))

    # -- epoch results ----------------------------------------------------
    def fold_epoch(self, results: Dict[int, Dict[str, Any]]) -> None:
        """Merge one boundary's payloads in canonical shard order."""
        completions: List[Tuple[float, int, int, int, float, bool]] = []
        evictions: List[Tuple[int, int, list]] = []
        for index in sorted(results):
            payload = results[index]
            self.views[index].apply(payload["snapshot"])
            self._fold_counters(index, payload["admitted"],
                                payload["rejected"])
            for seq, (done, tenant, latency, violated) \
                    in enumerate(payload["completions"]):
                completions.append(
                    (done, index, seq, tenant, latency, violated))
            for ordinal, records in payload["evicted"]:
                evictions.append((ordinal, index, records))
            self.health_events.extend(payload["health_events"])
        # Serial fault order: the single fault driver fires time-sorted
        # faults, so eviction batches merge by fault ordinal, not shard.
        evictions.sort(key=lambda entry: (entry[0], entry[1]))
        for _, origin, records in evictions:
            for request_index, admitted_at, reroutes in records:
                self.pending_reroutes.append(
                    (origin, request_index, admitted_at, reroutes))
        self._feed_completions(completions)

    def _fold_counters(self, index: int, admitted: Dict[int, int],
                       rejected: Dict[int, int]) -> None:
        # Count deltas are order-insensitive, so they are applied
        # directly instead of replaying one on_admitted() per request.
        # The serial dispatcher's routed counter only counts *admitted*
        # arrivals (shard-level admission rejections are excluded, and
        # adopted reroutes never re-count), which is exactly the shard's
        # admitted delta.
        for tenant_index in sorted(admitted):
            count = admitted[tenant_index]
            tenant = self.tenants[tenant_index]
            self.fleet.accounts[tenant].admitted += count
            self.fleet.aggregate.admitted += count
            self.routed[index] += count
        for tenant_index in sorted(rejected):
            count = rejected[tenant_index]
            tenant = self.tenants[tenant_index]
            self.fleet.accounts[tenant].rejected += count
            self.fleet.aggregate.rejected += count

    def _feed_completions(
            self, completions: List[Tuple[float, int, int, int,
                                          float, bool]]) -> None:
        # Canonical merge order — (time, shard, shard-sequence) — makes
        # the fleet reservoir's sample stream identical no matter how
        # shards were partitioned over workers.
        completions.sort(key=lambda c: (c[0], c[1], c[2]))
        tenants = self.tenants
        for _, _, _, tenant_index, latency, violated in completions:
            self.fleet.on_completed(
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
        return max([self._last_reject_s, *shard_settled], default=0.0)

    # -- final assembly ----------------------------------------------------
    def assemble(self, finish: Dict[int, Dict[str, Any]]) -> ClusterReport:
        """Fold the drain-phase payloads and build the fleet report."""
        completions: List[Tuple[float, int, int, int, float, bool]] = []
        for index in sorted(finish):
            payload = finish[index]
            self._fold_counters(index, payload["admitted"],
                                payload["rejected"])
            for seq, (done, tenant, latency, violated) \
                    in enumerate(payload["completions"]):
                completions.append(
                    (done, index, seq, tenant, latency, violated))
            self.health_events.extend(payload["health_events"])
        self._feed_completions(completions)
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
        # Serial event order: the fault driver fires time-sorted faults
        # in config order — exactly the ordinal each event carries.
        self.health_events.sort(key=lambda event: event[0])
        return assemble_cluster_report(
            self.scenario, self.cluster, self.fleet, devices,
            makespan_s=makespan_s,
            energy_j=sum(finish[index]["energy_j"] for index in indices),
            routed=[self.routed[index] for index in indices],
            rerouted_in=[self.rerouted_in[index] for index in indices],
            rerouted_out=[self.rerouted_out[index] for index in indices],
            reroutes=self.reroutes,
            cluster_rejected=self.cluster_rejected,
            final_health=[finish[index]["health"] for index in indices],
            health_events=[event[1:] for event in self.health_events])


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
    "run_cluster_parallel",
    "unpack_shard_result",
]
