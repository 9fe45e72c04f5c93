"""Elastic fleets: the ``autoscaler`` policy domain and its control loop.

Where the PR-3 fault timeline *replays* a scripted health script, this
module closes the loop: an :class:`AutoscaleController` process samples
fleet load on a fixed simulated cadence and asks a registered
``autoscaler`` policy (registry domain #5, :mod:`repro.policy`) for a
target fleet size.  The controller then acts:

* **Scale-up** builds a brand-new :class:`~repro.cluster.health.DeviceShard`
  from the cluster's device template on the shared engine, but holds it
  out of placement for the cluster's ``warmup_s`` — the device burns
  energy and device-seconds while warming, which is the provisioning
  cost an elastic fleet pays for reacting late.
* **Scale-down** picks a victim, stops placing to it (``draining``),
  evicts its queued backlog and reroutes every record through the PR-3
  evict/reroute machinery — in-flight work finishes on the victim, so
  **no admitted request is ever dropped**.  Once the victim is empty it
  is retired: its backend leaves service mode and its device-seconds
  meter stops.

Every decision happens at a deterministic engine timeout, so elastic
runs are byte-reproducible per seed like everything else in the repo.

Built-in policies
-----------------
* ``queue_depth_threshold`` — scale on per-device load: a standing
  queue above ``scale_up_depth`` adds a device; outstanding work
  (queued + in-flight) below ``scale_down_depth`` removes one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..policy import build_policy, register_policy

#: Action tags recorded in the controller's event log.
SCALE_UP = "scale_up"
SCALE_DOWN = "scale_down"
RETIRE = "retire"


class FleetSignals:
    """What an autoscaler policy may observe at one control tick.

    A plain read-only snapshot: the controller assembles one per tick so
    policies never touch live session objects (keeps them trivially
    testable and keeps the observation surface explicit).
    """

    __slots__ = ("active_devices", "queued_total", "in_flight_total")

    def __init__(self, active_devices: int, queued_total: int,
                 in_flight_total: int):
        self.active_devices = active_devices
        self.queued_total = queued_total
        self.in_flight_total = in_flight_total

    @property
    def queued_per_device(self) -> float:
        """Queued requests per active device (0 devices reads as 1)."""
        return self.queued_total / max(self.active_devices, 1)

    @property
    def outstanding_per_device(self) -> float:
        """Queued plus in-flight work per active device.

        The idleness signal: a busy-but-unqueued fleet reads ~1 request
        per device here while its instantaneous queue depth reads 0, so
        scale-down decisions keyed on this do not mistake "keeping up"
        for "idle".
        """
        return ((self.queued_total + self.in_flight_total)
                / max(self.active_devices, 1))


class AutoscalerPolicy:
    """Base policy: name a target fleet size for the current signals."""

    name = "autoscaler"

    def target(self, signals: FleetSignals) -> int:
        """Desired device count; the controller clamps to [min, max]."""
        raise NotImplementedError


@register_policy("autoscaler")
class QueueDepthThresholdAutoscaler(AutoscalerPolicy):
    """Scale on per-device load with an asymmetric dead band.

    Scale-up keys on *queued* requests per active device (above
    ``scale_up_depth`` the fleet grows by ``step``): a standing queue is
    the unambiguous overload signal.  Scale-down keys on *outstanding*
    work per device — queued plus in-flight — below ``scale_down_depth``:
    a fleet that is keeping up runs with empty queues at every tick
    instant, so queue depth alone would read a fully busy fleet as idle
    and flap it.  Keep the thresholds apart, or the fleet oscillates.
    """

    name = "queue_depth_threshold"

    def __init__(self, scale_up_depth: float = 4.0,
                 scale_down_depth: float = 0.5, step: int = 1):
        if scale_up_depth <= scale_down_depth:
            raise ValueError(
                "scale_up_depth must exceed scale_down_depth (the gap is "
                "the hysteresis dead band)")
        if step < 1:
            raise ValueError("step must be >= 1")
        self.scale_up_depth = scale_up_depth
        self.scale_down_depth = scale_down_depth
        self.step = step

    def target(self, signals: FleetSignals) -> int:
        """Grow on standing queues, shrink only when devices sit idle."""
        if signals.queued_per_device > self.scale_up_depth:
            return signals.active_devices + self.step
        if signals.outstanding_per_device < self.scale_down_depth:
            return signals.active_devices - self.step
        return signals.active_devices


class AutoscaleController:
    """The elastic-fleet control loop of one cluster run.

    Owns the policy instance, the per-tick signal assembly, the scale-up
    (build + warm-up) and scale-down (drain + retire) mechanics, and the
    cost accounting the report's ``autoscaler`` section carries.  The
    dispatcher stays the single routing authority: the controller only
    flips shard lifecycle flags and reuses the dispatcher's reroute
    machinery, exactly like the fault path does.
    """

    def __init__(self, env, dispatcher, cluster,
                 shard_factory: Callable[[int], object]):
        spec = cluster.autoscaler_spec
        if spec is None:
            raise ValueError("cluster has no autoscaler_spec")
        self.env = env
        self.dispatcher = dispatcher
        self.cluster = cluster
        self.shard_factory = shard_factory
        self.policy = build_policy("autoscaler", spec)
        self.min_devices = cluster.effective_min_devices
        self.max_devices = cluster.effective_max_devices
        self.interval_s = cluster.autoscale_interval_s
        self.warmup_s = cluster.warmup_s
        #: [time, action, device] rows, in decision order.
        self.events: List[List] = []
        #: [time, active-device-count] after every change and tick.
        self.size_timeline: List[Tuple[float, int]] = [
            (env.now, len(dispatcher.shards))]
        self._stopped = False
        self._pending = None
        self._warm_timers: List = []

    # ------------------------------------------------------------------ #
    # Wiring                                                              #
    # ------------------------------------------------------------------ #
    def install(self, env) -> None:
        """Start the control-loop process (first tick after one interval)."""
        env.spawn(self._loop(env))

    def _loop(self, env):
        interval = self.interval_s
        while not self._stopped:
            self._pending = env.timeout(interval)
            yield self._pending
            if self._stopped:
                return
            self.tick(env.now)

    def stop(self, env) -> None:
        """Retire the loop and de-schedule its pending timers.

        Called once the run has settled; like the metrics bus's sampler,
        the pending control tick (and any outstanding warm-up timers —
        warming after the last arrival serves nothing) is *cancelled*,
        never fired, so the post-run drain ends at the real makespan.
        """
        if self._stopped:
            return
        self._stopped = True
        pending, self._pending = self._pending, None
        if pending is not None:
            env.cancel(pending)
        for timer in self._warm_timers:
            env.cancel(timer)
        self._warm_timers = []
        # A shard still warming at stop never joins placement; clear the
        # flag anyway so `routable` reflects final health in the report.
        for shard in self.dispatcher.shards:
            shard.warming = False

    # ------------------------------------------------------------------ #
    # The control tick                                                    #
    # ------------------------------------------------------------------ #
    def _active_shards(self) -> List:
        """Shards currently provisioned (not draining, not retired)."""
        return [shard for shard in self.dispatcher.shards
                if not shard.draining and not shard.retired]

    def _signals(self) -> FleetSignals:
        active = self._active_shards()
        return FleetSignals(
            active_devices=len(active),
            queued_total=sum(shard.queued for shard in active),
            in_flight_total=sum(shard.in_flight for shard in active),
        )

    def tick(self, now: float) -> None:
        """One control decision: retire finished drains, then resize."""
        self._retire_drained(now)
        signals = self._signals()
        target = self.policy.target(signals)
        target = max(self.min_devices, min(self.max_devices, target))
        active = signals.active_devices
        if target > active:
            self._scale_up(now, target - active)
        elif target < active:
            self._scale_down(now, active - target)
        self.size_timeline.append((now, len(self._active_shards())))

    def _retire_drained(self, now: float) -> None:
        """Finish the backends of drained scale-down victims."""
        for shard in self.dispatcher.shards:
            if (shard.draining and not shard.retired
                    and shard.queued == 0 and shard.in_flight == 0):
                shard.retired = True
                shard.retired_at = now
                shard.backend.finish()
                self.events.append([now, RETIRE, shard.index])

    def _scale_up(self, now: float, count: int) -> None:
        """Provision ``count`` new devices from the template."""
        if self.dispatcher.closed:
            # No arrivals are coming: new capacity could never serve a
            # request and would only inflate the cost accounting.
            return
        for _ in range(count):
            index = len(self.dispatcher.shards)
            shard = self.shard_factory(index)
            shard.activated_at = now
            if self.warmup_s > 0:
                shard.warming = True
                self._warm_timers.append(
                    self.env.spawn(self._warm(shard)))
            self.dispatcher.add_shard(shard)
            self.events.append([now, SCALE_UP, index])

    def _warm(self, shard):
        timer = self.env.timeout(self.warmup_s)
        self._warm_timers.append(timer)
        yield timer
        shard.warming = False

    def _scale_down(self, now: float, count: int) -> None:
        """Drain ``count`` victims (highest index first), never below min."""
        for _ in range(count):
            candidates = self._active_shards()
            if len(candidates) <= self.min_devices:
                return
            victim = max(candidates, key=lambda shard: shard.index)
            victim.draining = True
            if not self.dispatcher.drain_shard(victim):
                # No peer can adopt the backlog (every other device
                # failed): the scale-down is aborted, not half-applied.
                return
            self.events.append([now, SCALE_DOWN, victim.index])

    # ------------------------------------------------------------------ #
    # Cost accounting                                                     #
    # ------------------------------------------------------------------ #
    def device_seconds(self, makespan_s: float) -> List[float]:
        """Per-device provisioned time: activation to retirement (or end)."""
        return [
            (shard.retired_at if shard.retired_at is not None
             else makespan_s) - shard.activated_at
            for shard in self.dispatcher.shards]

    def summary(self, makespan_s: float) -> Dict[str, object]:
        """The report's ``autoscaler`` section (plain JSON-safe dict)."""
        per_device = self.device_seconds(makespan_s)
        sizes = [size for _, size in self.size_timeline]
        return {
            "policy": self.cluster.autoscaler_spec.to_dict(),
            "min_devices": self.min_devices,
            "max_devices": self.max_devices,
            "warmup_s": self.warmup_s,
            "interval_s": self.interval_s,
            "events": [list(event) for event in self.events],
            "size_timeline": [[t, size] for t, size in self.size_timeline],
            "device_seconds": per_device,
            "total_device_seconds": sum(per_device),
            "peak_devices": max(sizes),
            "min_active_devices": min(sizes),
            "final_devices": sizes[-1],
        }
