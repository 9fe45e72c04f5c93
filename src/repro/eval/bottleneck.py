"""Trace-driven bottleneck report: where did requests spend their time?

:func:`bottleneck_breakdown` folds a recorded span trace
(:class:`~repro.obs.Tracer`) into per-stage latency totals per tenant —
how much of the end-to-end time went to *queueing* (admission to the
first eviction or dispatch), to *rerouting* (eviction on a failing
device until the adopting device dispatched), and to *service*
(dispatch to completion).  The three stages partition each completed
request's latency exactly, so per-tenant stage sums reconcile with the
end-to-end totals to floating-point round-off — a property the test
suite asserts.

:func:`format_bottleneck` renders the breakdown as the usual fixed-width
table and names the dominant stage per tenant, which is the one-look
answer to "is this workload dispatch-bound or queue-bound?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from ..obs.trace import SpanEvent, Tracer
from .report import format_table

#: The latency stages a completed request's end-to-end time splits into.
STAGES = ("queue", "reroute", "service")


@dataclass
class StageStats:
    """Per-tenant (or aggregate) stage-time accounting."""

    tenant: str
    completed: int = 0
    #: Summed seconds per stage across completed requests.
    totals: Dict[str, float] = field(
        default_factory=lambda: {stage: 0.0 for stage in STAGES})

    @property
    def total_s(self) -> float:
        """Summed end-to-end latency (the stage sums, by construction)."""
        return sum(self.totals.values())

    @property
    def dominant(self) -> Optional[str]:
        """The stage with the largest summed time (None if no data).

        Ties break in :data:`STAGES` order — the earlier lifecycle
        stage wins, deterministically.
        """
        if self.completed == 0:
            return None
        return max(STAGES, key=lambda s: (self.totals[s],
                                          -STAGES.index(s)))

    def share(self, stage: str) -> float:
        """Fraction of total time spent in ``stage`` (0.0 if no data)."""
        total = self.total_s
        if total <= 0:
            return 0.0
        return self.totals[stage] / total


def bottleneck_breakdown(
        trace: Union[Tracer, Iterable[SpanEvent]]
) -> Dict[str, StageStats]:
    """Fold a span trace into per-tenant stage statistics.

    Returns ``{tenant: StageStats}`` plus the ``"__all__"`` aggregate.
    Only *completed* requests contribute (rejected ones never queue;
    requests truncated by ring-buffer wraparound lack their arrival and
    are skipped rather than miscounted).  Stage definitions:

    * ``queue``   — arrival until the first eviction, or until dispatch
      when the request was never evicted;
    * ``reroute`` — first eviction until dispatch (0 without a reroute);
    * ``service`` — dispatch until completion.

    The last recorded dispatch is the one that led to completion, so
    the three stages partition ``complete - arrival`` exactly.
    """
    events = trace.events if isinstance(trace, Tracer) else trace
    folded: Dict[int, Dict[str, float]] = {}
    tenant_of: Dict[int, str] = {}
    for t, phase, rid, tenant, device, aux in events:
        if phase == "screen":
            continue
        req = folded.setdefault(rid, {})
        tenant_of[rid] = tenant
        if phase == "arrival":
            req["arrival"] = t
        elif phase == "evict":
            req.setdefault("first_evict", t)
        elif phase == "dispatch":
            # Rerouted requests dispatch more than once; the last
            # dispatch is the one the completion belongs to.
            req["dispatch"] = t
        elif phase == "complete":
            req["complete"] = t

    stats: Dict[str, StageStats] = {"__all__": StageStats("__all__")}
    for rid in sorted(folded):
        req = folded[rid]
        arrival = req.get("arrival")
        dispatch = req.get("dispatch")
        complete = req.get("complete")
        if arrival is None or dispatch is None or complete is None:
            continue
        first_evict = req.get("first_evict")
        queue_end = first_evict if first_evict is not None else dispatch
        parts = {
            "queue": max(0.0, queue_end - arrival),
            "reroute": (max(0.0, dispatch - first_evict)
                        if first_evict is not None else 0.0),
            "service": max(0.0, complete - dispatch),
        }
        tenant = tenant_of[rid]
        for key in (tenant, "__all__"):
            entry = stats.setdefault(key, StageStats(key))
            entry.completed += 1
            for stage in STAGES:
                entry.totals[stage] += parts[stage]
    return stats


def format_bottleneck(breakdown: Dict[str, StageStats]) -> str:
    """Render a breakdown as a table + one dominant-stage line per tenant.

    Tenants sort lexically with the ``"__all__"`` aggregate last, so the
    fleet-level verdict closes the table.
    """
    ordered = sorted(breakdown,
                     key=lambda name: (name == "__all__", name))
    headers = ["tenant", "completed", "queue_ms", "reroute_ms",
               "service_ms", "total_ms", "dominant"]
    rows: List[List[object]] = []
    verdicts: List[str] = []
    for name in ordered:
        entry = breakdown[name]
        rows.append([
            name, entry.completed,
            entry.totals["queue"] * 1e3,
            entry.totals["reroute"] * 1e3,
            entry.totals["service"] * 1e3,
            entry.total_s * 1e3,
            entry.dominant or "-",
        ])
        if entry.dominant is not None:
            verdicts.append(
                f"  {name}: {entry.dominant} "
                f"({entry.share(entry.dominant) * 100:.1f}% of "
                f"{entry.total_s * 1e3:.1f} ms)")
    text = ("Bottleneck breakdown (summed stage time per tenant)\n"
            + format_table(headers, rows))
    if verdicts:
        text += "\nDominant stage:\n" + "\n".join(verdicts)
    return text


__all__ = [
    "STAGES",
    "StageStats",
    "bottleneck_breakdown",
    "format_bottleneck",
]
