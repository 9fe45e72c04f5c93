"""Discrete-event simulation substrate used by all FlashAbacus models."""

from .engine import (
    AllOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from .resources import BandwidthPipe, Resource, TransferRecord
from .stats import (
    IntervalAccumulator,
    LatencyReservoir,
    SummaryStats,
    TimeSeries,
    TimeWeightedStat,
)

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
    "BandwidthPipe",
    "Resource",
    "TransferRecord",
    "IntervalAccumulator",
    "LatencyReservoir",
    "SummaryStats",
    "TimeSeries",
    "TimeWeightedStat",
]
