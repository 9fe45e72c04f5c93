"""Discrete-event simulation substrate used by all FlashAbacus models."""

from .engine import (
    AllOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from .resources import BandwidthPipe, Resource, Store, TransferRecord
from .stats import (
    Counter,
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
    "Store",
    "TransferRecord",
    "Counter",
    "IntervalAccumulator",
    "LatencyReservoir",
    "SummaryStats",
    "TimeSeries",
    "TimeWeightedStat",
]
