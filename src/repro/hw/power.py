"""Energy accounting.

The paper decomposes system energy into three buckets (Figures 3e, 13 and
16b): *data movement* (host CPU + host DRAM + PCIe activity spent shuttling
data), *computation* (the accelerator's LWPs doing useful work), and
*storage access* (the SSD / flash backbone plus the storage stack).  The
:class:`EnergyAccountant` lets every component charge energy into one of
those buckets as the simulation progresses, and also keeps a per-component
ledger for finer-grained reporting.

Instantaneous power (Figure 15b) is tracked with :class:`PowerMonitor`,
which samples the sum of per-component draws whenever a component changes
state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..sim.engine import Environment
from ..sim.stats import TimeSeries

# Canonical energy buckets used across all evaluation figures.
DATA_MOVEMENT = "data_movement"
COMPUTATION = "computation"
STORAGE_ACCESS = "storage_access"
BUCKETS = (DATA_MOVEMENT, COMPUTATION, STORAGE_ACCESS)


@dataclass
class EnergyBreakdown:
    """Energy (joules) split into the paper's three buckets."""

    data_movement: float = 0.0
    computation: float = 0.0
    storage_access: float = 0.0

    @property
    def total(self) -> float:
        return self.data_movement + self.computation + self.storage_access

    def fraction(self, bucket: str) -> float:
        total = self.total
        if total <= 0:
            return 0.0
        return getattr(self, bucket) / total

    def normalized_to(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        """Scale every bucket by ``other``'s total (for paper-style plots)."""
        denom = other.total
        if denom <= 0:
            raise ValueError("cannot normalize to zero total energy")
        return EnergyBreakdown(
            data_movement=self.data_movement / denom,
            computation=self.computation / denom,
            storage_access=self.storage_access / denom,
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            DATA_MOVEMENT: self.data_movement,
            COMPUTATION: self.computation,
            STORAGE_ACCESS: self.storage_access,
            "total": self.total,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "EnergyBreakdown":
        return cls(
            data_movement=data.get(DATA_MOVEMENT, 0.0),
            computation=data.get(COMPUTATION, 0.0),
            storage_access=data.get(STORAGE_ACCESS, 0.0),
        )


class EnergyAccountant:
    """Collects energy charges from every simulated component."""

    def __init__(self) -> None:
        self.breakdown = EnergyBreakdown()
        self.by_component: Dict[str, float] = {}

    def charge(self, component: str, bucket: str, joules: float) -> None:
        """Charge ``joules`` of energy consumed by ``component``."""
        if joules < 0:
            raise ValueError("energy must be non-negative")
        # A few charges per simulated screen: add to the field directly
        # rather than through getattr/setattr on the bucket name.
        breakdown = self.breakdown
        if bucket == COMPUTATION:
            breakdown.computation += joules
        elif bucket == STORAGE_ACCESS:
            breakdown.storage_access += joules
        elif bucket == DATA_MOVEMENT:
            breakdown.data_movement += joules
        else:
            raise ValueError(f"unknown energy bucket: {bucket!r}")
        by_component = self.by_component
        by_component[component] = by_component.get(component, 0.0) + joules

    def charge_power(self, component: str, bucket: str, watts: float,
                     duration_s: float) -> None:
        """Charge ``watts`` drawn for ``duration_s`` seconds."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        self.charge(component, bucket, watts * duration_s)

    @property
    def total_joules(self) -> float:
        return self.breakdown.total


class PowerMonitor:
    """Tracks instantaneous system power as a time series (Fig. 15b)."""

    def __init__(self, env: Environment, baseline_w: float = 0.0):
        self.env = env
        self.baseline_w = baseline_w
        self._draws: Dict[str, float] = {}
        self.series = TimeSeries("power_w")
        self.series.record(env.now, baseline_w)

    def set_draw(self, component: str, watts: float) -> None:
        """Set the current draw of ``component`` (0 to clear)."""
        if watts < 0:
            raise ValueError("power draw must be non-negative")
        if watts == 0:
            self._draws.pop(component, None)
        else:
            self._draws[component] = watts
        self.series.record(self.env.now, self.current_power())

    def current_power(self) -> float:
        return self.baseline_w + sum(self._draws.values())

    def average_power(self, start: float = 0.0,
                      end: Optional[float] = None) -> float:
        """Time-weighted average power over [start, end]."""
        end = self.env.now if end is None else end
        if end <= start:
            return self.current_power()
        series = self.series
        total = 0.0
        prev_t, prev_v = start, series.value_at(start)
        for time, value in series:
            if time <= start:
                continue
            if time >= end:
                break
            total += prev_v * (time - prev_t)
            prev_t, prev_v = time, value
        total += prev_v * (end - prev_t)
        return total / (end - start)
