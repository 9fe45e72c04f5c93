"""Standard instrument sets for serving and cluster runs.

These wiring helpers connect a :class:`~repro.obs.metrics.MetricsBus` to
the live objects of one run (tracker, front-end, backend, shards) using
only their public read surface — the bus layer stays import-free of
:mod:`repro.serve` / :mod:`repro.cluster` and everything is duck-typed.
Closures are only allocated here, i.e. only when a bus exists: a run
without observability never reaches this module (the zero-cost-when-
disabled contract).

Series naming: flat dotted names (``queue_depth.web``,
``device0.outstanding``, ``latency_window_s.p99``); the fleet-level
cluster instruments reuse the serving names so downstream consumers
(autoscalers, learned policies) read one vocabulary at either scope.
"""

from __future__ import annotations

from .metrics import MetricsBus


def _account_rates(bus: MetricsBus, tracker, prefix: str = "") -> None:
    """offered/admitted/rejected/completed rates + admission share."""
    aggregate = tracker.aggregate
    bus.rate(prefix + "offered_rps",
             lambda: float(aggregate.offered))
    bus.rate(prefix + "admitted_rps",
             lambda: float(aggregate.admitted))
    bus.rate(prefix + "rejected_rps",
             lambda: float(aggregate.rejected))
    bus.rate(prefix + "completed_rps",
             lambda: float(aggregate.completed))
    bus.gauge(prefix + "admission_rate",
              lambda: (aggregate.admitted / aggregate.offered
                       if aggregate.offered else None))
    bus.gauge(prefix + "rolling_p99_s",
              lambda: tracker.rolling_percentile(99.0))


def _backend_instruments(bus: MetricsBus, backend,
                         prefix: str = "") -> None:
    """Energy rate plus accelerator-only device signals."""
    bus.rate(prefix + "energy_w", lambda: float(backend.energy_j))
    accelerator = getattr(backend, "accelerator", None)
    if accelerator is None:
        return
    env = accelerator.env
    cluster = accelerator.cluster
    bus.gauge(prefix + "lwp_utilization",
              lambda: (cluster.worker_utilization(env.now)
                       if env.now > 0 else None))
    stats = accelerator.storengine.stats
    bus.rate(prefix + "gc_invocations_per_s",
             lambda: float(stats.gc_invocations))
    bus.rate(prefix + "gc_erased_rows_per_s",
             lambda: float(stats.erased_rows))
    bus.rate(prefix + "flash_flush_bytes_per_s",
             lambda: float(stats.flushed_bytes))


def wire_serving_metrics(bus: MetricsBus, tracker, frontend,
                         backend) -> None:
    """Register the standard single-device serving instrument set.

    A windowed histogram subscribes to the front-end's completion
    stream, so every completion feeds ``latency_window_s.{count,mean,
    p50,p99}`` — the *windowed* tail per cadence tick, next to the
    run-cumulative ``rolling_p99_s`` from the SLO reservoir.
    """
    for tenant in sorted(frontend.queues):
        queue = frontend.queues[tenant]
        bus.gauge(f"queue_depth.{tenant}",
                  lambda q=queue: float(len(q)))
    bus.gauge("queue_depth.total", lambda: float(frontend.total_queued))
    bus.gauge("in_flight", lambda: float(backend.in_flight))
    _account_rates(bus, tracker)
    histogram = bus.histogram("latency_window_s")
    frontend.completion_hooks.append(
        lambda record: histogram.observe(record.latency_s))
    _backend_instruments(bus, backend)


def wire_cluster_metrics(bus: MetricsBus, fleet, shards,
                         dispatcher) -> None:
    """Register the fleet instrument set: fleet rates + per-shard depth.

    Fleet-level names mirror :func:`wire_serving_metrics`; per-shard
    signals live under ``device{index}.`` so a bottleneck hunt can see
    *which* shard's outstanding work grew when the fleet p99 drifted.
    """
    _account_rates(bus, fleet)
    bus.gauge("routable_devices",
              lambda: float(len(dispatcher.routable_shards())))
    bus.rate("reroutes_per_s", lambda: float(dispatcher.ledger.reroutes))
    bus.gauge("queue_depth.total",
              lambda: float(sum(s.frontend.total_queued for s in shards)))
    bus.gauge("in_flight",
              lambda: float(sum(s.backend.in_flight for s in shards)))
    tenants = sorted(shards[0].frontend.queues) if shards else []
    for tenant in tenants:
        bus.gauge(f"queue_depth.{tenant}",
                  lambda t=tenant: float(sum(
                      len(s.frontend.queues[t]) for s in shards)))
    for shard in shards:
        prefix = f"device{shard.index}."
        bus.gauge(prefix + "outstanding",
                  lambda s=shard: float(s.queued + s.in_flight))
        bus.gauge(prefix + "queue_depth",
                  lambda s=shard: float(s.queued))
        bus.rate(prefix + "energy_w",
                 lambda s=shard: float(s.backend.energy_j))
    bus.rate("energy_w",
             lambda: float(sum(s.backend.energy_j for s in shards)))
