"""Discrete-event simulation substrate used by all FlashAbacus models."""

from .engine import (
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from .resources import BandwidthPipe
from .stats import (
    IntervalAccumulator,
    LatencyReservoir,
    SummaryStats,
    TimeSeries,
    TimeWeightedStat,
)

__all__ = [
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
    "BandwidthPipe",
    "IntervalAccumulator",
    "LatencyReservoir",
    "SummaryStats",
    "TimeSeries",
    "TimeWeightedStat",
]
