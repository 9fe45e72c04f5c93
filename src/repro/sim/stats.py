"""Statistics collection for simulation models.

Provides small accumulators used throughout the hardware and scheduler
models:

* :class:`Counter` — monotonically increasing named counters.
* :class:`IntervalAccumulator` — accumulates busy intervals for utilization.
* :class:`TimeWeightedStat` — time-weighted average of a piecewise-constant
  signal (queue depths, active-core counts, instantaneous power).
* :class:`TimeSeries` — raw (time, value) samples for Fig. 15-style plots.
* :class:`SummaryStats` — min/avg/max/percentile helper over samples.
* :class:`LatencyReservoir` — bounded streaming sample reservoir with exact
  count/mean/min/max and :class:`SummaryStats`-based percentiles, used by
  the serving layer's per-tenant SLO accounting.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)


class Counter:
    """A bag of named, monotonically increasing counters."""

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increase counter ``name`` by ``amount`` (non-negative)."""
        if amount < 0:
            raise ValueError("counters only increase")
        self._values[name] = self._values.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        """Current value of ``name`` (0.0 if never incremented)."""
        return self._values.get(name, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """Copy of all counters as a plain dict."""
        return dict(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self._values!r})"


class IntervalAccumulator:
    """Accumulates busy time from possibly nested begin/end intervals."""

    def __init__(self) -> None:
        self._busy = 0.0
        self._depth = 0
        self._since: Optional[float] = None

    def begin(self, now: float) -> None:
        """Enter a (possibly nested) busy interval at time ``now``."""
        if self._depth == 0:
            self._since = now
        self._depth += 1

    def end(self, now: float) -> None:
        """Leave the innermost busy interval at time ``now``."""
        if self._depth <= 0:
            raise ValueError("end() without matching begin()")
        self._depth -= 1
        if self._depth == 0 and self._since is not None:
            if now < self._since:
                raise ValueError("interval ends before it begins")
            self._busy += now - self._since
            self._since = None

    def busy_time(self, now: Optional[float] = None) -> float:
        """Total busy time, including an open interval up to ``now``."""
        busy = self._busy
        if self._depth > 0 and self._since is not None and now is not None:
            busy += max(0.0, now - self._since)
        return busy

    def utilization(self, now: float) -> float:
        """Fraction of [0, ``now``] spent busy, clamped to 1."""
        if now <= 0:
            return 0.0
        return min(1.0, self.busy_time(now) / now)


class TimeWeightedStat:
    """Time-weighted mean of a piecewise-constant signal."""

    def __init__(self, initial: float = 0.0, start_time: float = 0.0):
        self.value = initial     # read freely; change via update()/adjust()
        self._last_time = start_time
        self._weighted_sum = 0.0
        self._max = initial
        self._min = initial

    @property
    def max(self) -> float:
        """Largest value observed so far."""
        return self._max

    @property
    def min(self) -> float:
        """Smallest value observed so far."""
        return self._min

    def update(self, now: float, value: float) -> None:
        """Set the signal to ``value`` at time ``now``."""
        if now < self._last_time:
            raise ValueError("time must not go backwards")
        self._weighted_sum += self.value * (now - self._last_time)
        self._last_time = now
        self.value = value
        if value > self._max:
            self._max = value
        if value < self._min:
            self._min = value

    def adjust(self, now: float, delta: float) -> None:
        """Shift the current value by ``delta`` at time ``now``."""
        self.update(now, self.value + delta)

    def mean(self, now: float) -> float:
        """Time-weighted mean of the signal over [0, ``now``]."""
        total = self._weighted_sum + self.value * (now - self._last_time)
        if now <= 0:
            return self.value
        return total / now


class TimeSeries:
    """Raw sampled signal, kept as parallel time and value lists."""

    def __init__(self, name: str = ""):
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Append one sample; time must not go backwards."""
        times = self._times
        if times and time < times[-1]:
            raise ValueError("samples must be recorded in time order")
        times.append(time)
        self._values.append(value)

    def times(self) -> List[float]:
        """All sample timestamps, in recording order."""
        return list(self._times)

    def values(self) -> List[float]:
        """All sample values, in recording order."""
        return list(self._values)

    def value_at(self, time: float) -> float:
        """Value of the signal at ``time`` (piecewise-constant, last sample).

        When several samples share the same timestamp, the most recent one
        wins — that is the value the signal settled on at that instant.
        """
        if not self._times:
            return 0.0
        idx = bisect_right(self._times, time)
        return self._values[idx - 1 if idx else 0]

    def resample(self, step: float, end: Optional[float] = None) -> "TimeSeries":
        """Return a new series sampled every ``step`` up to ``end``."""
        if step <= 0:
            raise ValueError("step must be positive")
        out = TimeSeries(self.name)
        if not self._times:
            return out
        end = self._times[-1] if end is None else end
        t = self._times[0]
        while t <= end + 1e-12:
            out.record(t, self.value_at(t))
            t += step
        return out

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        """(time, value) pairs, in recording order."""
        return zip(self._times, self._values)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form: name plus [time, value] pairs."""
        return {"name": self.name, "samples": [[t, v] for t, v in self]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TimeSeries":
        """Rebuild a series from :meth:`to_dict` output."""
        series = cls(str(data.get("name", "")))
        for time, value in data.get("samples", []):  # type: ignore[union-attr]
            series.record(float(time), float(value))
        return series


class SummaryStats:
    """Min / mean / max / percentile summary over a set of samples."""

    def __init__(self, values: Iterable[float] = ()):
        self._values: List[float] = sorted(values)

    def add(self, value: float) -> None:
        """Insert one sample, keeping the sample set sorted."""
        idx = bisect_left(self._values, value)
        self._values.insert(idx, value)

    @property
    def count(self) -> int:
        """Number of samples."""
        return len(self._values)

    @property
    def min(self) -> float:
        """Smallest sample (raises with no samples)."""
        if not self._values:
            raise ValueError("no samples")
        return self._values[0]

    @property
    def max(self) -> float:
        """Largest sample (raises with no samples)."""
        if not self._values:
            raise ValueError("no samples")
        return self._values[-1]

    @property
    def mean(self) -> float:
        """Arithmetic mean, clamped into [min, max]."""
        if not self._values:
            raise ValueError("no samples")
        # Clamp: float summation can push the quotient a ULP outside
        # [min, max] (e.g. three identical samples), and a mean outside
        # the observed range is never meaningful.
        mean = sum(self._values) / len(self._values)
        return min(max(mean, self._values[0]), self._values[-1])

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return sum(self._values)

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile, ``pct`` in [0, 100]."""
        if not self._values:
            raise ValueError("no samples")
        if not 0.0 <= pct <= 100.0:
            raise ValueError("pct must be in [0, 100]")
        if pct == 0:
            return self._values[0]
        rank = max(1, math.ceil(pct / 100.0 * len(self._values)))
        return self._values[rank - 1]

    def cdf_points(self) -> List[Tuple[float, float]]:
        """(value, cumulative fraction) pairs, suitable for a CDF plot."""
        n = len(self._values)
        return [(v, (i + 1) / n) for i, v in enumerate(self._values)]

    def as_dict(self) -> Dict[str, float]:
        """min/mean/max/count as a plain dict."""
        return {"min": self.min, "mean": self.mean, "max": self.max,
                "count": float(self.count)}


class LatencyReservoir:
    """Streaming latency accumulator with bounded memory.

    Open-loop serving runs observe one latency sample per request — far too
    many to keep verbatim at scale.  The reservoir keeps exact running
    aggregates (count, total, min, max) plus a uniform sample of at most
    ``capacity`` values maintained with Vitter's Algorithm R under a
    deterministic, seeded RNG, so percentile queries stay cheap and results
    are reproducible for a fixed seed.  Percentiles are answered through
    :class:`SummaryStats` over the current sample: exact while the stream
    fits in the reservoir, a uniform-sample estimate beyond that.
    """

    def __init__(self, capacity: int = 4096, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.seed = seed
        self._rng = random.Random(seed)
        # Bound method cached once: ``observe`` runs once per simulated
        # request and the attribute chain is measurable at scale.
        self._randrange = self._rng.randrange
        self._samples: List[float] = []
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        """Record one latency sample.

        This is the serving layer's per-request ingestion hot path; the
        branchy min/max updates and the cached ``randrange`` keep it to a
        handful of attribute operations per sample.  The RNG draw
        sequence is identical to the textbook Algorithm R formulation,
        so percentile results are unchanged for a given seed.
        """
        if value < 0:
            raise ValueError("latency samples must be non-negative")
        count = self._count = self._count + 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        samples = self._samples
        if len(samples) < self.capacity:
            samples.append(value)
        else:
            slot = self._randrange(count)
            if slot < self.capacity:
                samples[slot] = value

    # -- exact aggregates ---------------------------------------------------
    @property
    def count(self) -> int:
        """Exact number of samples observed (not just retained)."""
        return self._count

    @property
    def total(self) -> float:
        """Exact sum of every observed sample."""
        return self._total

    @property
    def mean(self) -> float:
        """Exact mean over every observed sample."""
        if self._count == 0:
            raise ValueError("no samples")
        return self._total / self._count

    @property
    def min(self) -> float:
        """Exact minimum (raises with no samples)."""
        if self._count == 0:
            raise ValueError("no samples")
        return self._min

    @property
    def max(self) -> float:
        """Exact maximum (raises with no samples)."""
        if self._count == 0:
            raise ValueError("no samples")
        return self._max

    @property
    def saturated(self) -> bool:
        """True once percentiles are estimates over a uniform sample."""
        return self._count > self.capacity

    # -- percentiles ---------------------------------------------------------
    def summary(self) -> SummaryStats:
        """A :class:`SummaryStats` over the reservoir's current sample."""
        return SummaryStats(self._samples)

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile over the reservoir sample."""
        if pct >= 100.0 and self._count:
            return self._max     # the exact maximum is always tracked
        return self.summary().percentile(pct)

    def percentiles(self, pcts: Sequence[float] = (50.0, 95.0, 99.0, 99.9)
                    ) -> Dict[float, float]:
        """Several percentiles from one sorted pass (p50/p95/p99/p99.9)."""
        summary = self.summary()
        return {pct: (self._max if pct >= 100.0 else summary.percentile(pct))
                for pct in pcts}

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for the experiment cache.

        The RNG state is not captured: a deserialized reservoir answers
        queries identically but is not meant to keep observing.
        """
        return {
            "capacity": self.capacity,
            "seed": self.seed,
            "count": self._count,
            "total": self._total,
            "min": None if self._count == 0 else self._min,
            "max": None if self._count == 0 else self._max,
            "samples": list(self._samples),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LatencyReservoir":
        """Rebuild a reservoir from :meth:`to_dict` output."""
        reservoir = cls(capacity=int(data["capacity"]),
                        seed=int(data["seed"]))
        reservoir._samples = [float(v) for v in data["samples"]]
        reservoir._count = int(data["count"])
        reservoir._total = float(data["total"])
        reservoir._min = (math.inf if data["min"] is None
                          else float(data["min"]))
        reservoir._max = (-math.inf if data["max"] is None
                          else float(data["max"]))
        return reservoir

    def __len__(self) -> int:
        return len(self._samples)
