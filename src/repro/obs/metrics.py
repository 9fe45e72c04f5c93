"""Time-series metrics bus: named instruments sampled on a sim-time cadence.

A :class:`MetricsBus` owns a set of named instruments — pull
:class:`Gauge` s, cumulative-counter :class:`Rate` s and windowed
:class:`Histogram` s — and a sampler
process that reads every instrument on a fixed simulated cadence into a
compact :class:`MetricsTimeline`.  The timeline serializes alongside
:class:`~repro.serve.report.ServingReport` /
:class:`~repro.cluster.report.ClusterReport` (the report's optional
``metrics`` field) and is the feedback substrate the autoscaler and
learned-policy roadmap items consume: queue depth per tenant, per-shard
outstanding work, admission rate, rolling p99, flash GC activity, LWP
utilization and energy rate, all on one shared time base.

Instruments only *read* simulation state; the sampler's timeout events
shift internal event sequence numbers but cannot reorder the simulation,
so a run with a bus attached produces the exact same report as one
without (covered by tests/test_obs.py).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

ValueFn = Callable[[], Optional[float]]


class Instrument:
    """Base: one named signal the bus samples each tick."""

    def __init__(self, name: str):
        if not name:
            raise ValueError("instrument name must be non-empty")
        self.name = name

    def sample(self, now: float) -> Optional[Dict[str, float]]:
        """Values to record at ``now`` as {series-suffix: value}.

        An empty-string key records under the bare instrument name.
        ``None`` (or ``None`` values) skip this tick — a gauge with
        nothing to report yet (e.g. a p99 before the first completion)
        leaves a gap instead of fabricating a zero.
        """
        raise NotImplementedError


class Gauge(Instrument):
    """Pull gauge: calls ``fn()`` each tick and records the result."""

    def __init__(self, name: str, fn: ValueFn):
        super().__init__(name)
        self._fn = fn

    def sample(self, now: float) -> Optional[Dict[str, float]]:
        value = self._fn()
        if value is None:
            return None
        return {"": float(value)}


class Rate(Instrument):
    """Per-second rate of a cumulative counter read through ``fn()``.

    The first tick establishes the baseline (no sample is recorded);
    every later tick records ``(value - previous) / (now - previous
    time)``, so the series is the instantaneous rate over each cadence
    window, not a since-start average.
    """

    def __init__(self, name: str, fn: ValueFn):
        super().__init__(name)
        self._fn = fn
        self._prev: Optional[Tuple[float, float]] = None

    def sample(self, now: float) -> Optional[Dict[str, float]]:
        value = self._fn()
        if value is None:
            return None
        value = float(value)
        prev = self._prev
        self._prev = (now, value)
        if prev is None or now <= prev[0]:
            return None
        return {"": (value - prev[1]) / (now - prev[0])}


class Histogram(Instrument):
    """Windowed distribution: observations since the last tick flush to
    ``.count`` / ``.mean`` / ``.p50`` / ``.p99`` sub-series.

    Ticks with an empty window record nothing (a gap, not a zero), so
    quiet periods are visible in the timeline.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self._window: List[float] = []

    def observe(self, value: float) -> None:
        """Add one observation to the current window."""
        self._window.append(value)

    def sample(self, now: float) -> Optional[Dict[str, float]]:
        window = self._window
        if not window:
            return None
        self._window = []
        window.sort()
        count = len(window)
        return {
            ".count": float(count),
            ".mean": sum(window) / count,
            ".p50": window[(count - 1) // 2],
            ".p99": window[min(count - 1, (99 * count) // 100)],
        }


class MetricsTimeline:
    """The sampled series of one run: {name: [(t, value), ...]}."""

    def __init__(self, cadence_s: float):
        if cadence_s <= 0:
            raise ValueError("cadence_s must be positive")
        self.cadence_s = cadence_s
        self.series: Dict[str, List[Tuple[float, float]]] = {}

    def append(self, name: str, time: float, value: float) -> None:
        """Record one point of series ``name``."""
        self.series.setdefault(name, []).append((time, value))

    # -- inspection --------------------------------------------------------
    def names(self) -> List[str]:
        """All series names, sorted."""
        return sorted(self.series)

    def values(self, name: str) -> List[Tuple[float, float]]:
        """The (time, value) points of one series ([] if absent)."""
        return list(self.series.get(name, []))

    def latest(self, name: str) -> Optional[float]:
        """Last recorded value of ``name``, or None."""
        points = self.series.get(name)
        return points[-1][1] if points else None

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict (JSON-safe) form carried by report ``metrics``."""
        return {
            "cadence_s": self.cadence_s,
            "series": {name: [[t, v] for t, v in points]
                       for name, points in sorted(self.series.items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MetricsTimeline":
        """Rebuild a timeline from :meth:`to_dict` output."""
        timeline = cls(float(data.get("cadence_s", 1.0)))
        for name, points in dict(data.get("series", {})).items():
            timeline.series[name] = [(float(t), float(v))
                                     for t, v in points]
        return timeline


class MetricsBus:
    """Instrument registry + cadence sampler for one run."""

    def __init__(self, cadence_s: float):
        self.timeline = MetricsTimeline(cadence_s)
        self._instruments: List[Instrument] = []
        self._names: Dict[str, Instrument] = {}
        self._stopped = False
        self._last_sample_t: Optional[float] = None
        self._pending = None

    # -- registration ------------------------------------------------------
    def register(self, instrument: Instrument) -> Instrument:
        """Add ``instrument``; names must be unique per bus."""
        if instrument.name in self._names:
            raise ValueError(
                f"instrument {instrument.name!r} already registered")
        self._names[instrument.name] = instrument
        self._instruments.append(instrument)
        return instrument

    def gauge(self, name: str, fn: ValueFn) -> Gauge:
        """Register a pull gauge."""
        gauge = Gauge(name, fn)
        self.register(gauge)
        return gauge

    def rate(self, name: str, fn: ValueFn) -> Rate:
        """Register a cumulative-counter rate."""
        rate = Rate(name, fn)
        self.register(rate)
        return rate

    def histogram(self, name: str) -> Histogram:
        """Register a windowed histogram."""
        histogram = Histogram(name)
        self.register(histogram)
        return histogram

    # -- sampling ----------------------------------------------------------
    def sample(self, now: float) -> None:
        """Read every instrument once at time ``now``.

        Idempotent per timestamp: a second call at the same ``now`` (the
        final :meth:`stop` sample landing on a cadence tick) is a no-op,
        so series never carry duplicate points.
        """
        if self._last_sample_t is not None and now <= self._last_sample_t:
            return
        self._last_sample_t = now
        append = self.timeline.append
        for instrument in self._instruments:
            values = instrument.sample(now)
            if not values:
                continue
            for suffix, value in values.items():
                append(instrument.name + suffix, now, value)

    def install(self, env) -> None:
        """Start the sampler process on ``env`` (first tick immediately)."""
        env.spawn(self._sampler(env))

    def _sampler(self, env):
        cadence = self.timeline.cadence_s
        while not self._stopped:
            self.sample(env.now)
            self._pending = env.timeout(cadence)
            yield self._pending

    def stop(self, env) -> None:
        """Take one final sample (at ``env.now``) and retire the sampler.

        Must be called before the session's post-run drain loop, for two
        reasons: a live sampler re-arms its timeout forever so the drain
        (step until the queue is empty) would never terminate, and even
        one pending re-arm tick would advance the drained clock past the
        run's real makespan — so the tick is *de-scheduled*
        (:meth:`~repro.sim.engine.Environment.cancel`), never fired,
        leaving the report byte-identical to an unobserved run.
        """
        if self._stopped:
            return
        self.sample(env.now)
        self._stopped = True
        pending, self._pending = self._pending, None
        if pending is not None:
            env.cancel(pending)
