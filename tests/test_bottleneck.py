"""Trace-driven bottleneck breakdown: stage math, reconciliation, rendering."""

from repro.cluster import ClusterSession
from repro.eval import STAGES, bottleneck_breakdown, format_bottleneck
from repro.obs import ObsConfig, Tracer
from repro.platform import ClusterConfig, FaultSpec, PlatformConfig
from repro.policy import PolicySpec
from repro.serve import ServingScenario, ServingSession, TenantSpec

TENANTS = (TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25))


def span(t, phase, rid, tenant="a", device=0, aux=None):
    return (t, phase, rid, tenant, device, aux)


# --------------------------------------------------------------------------- #
# Stage arithmetic on synthetic traces                                         #
# --------------------------------------------------------------------------- #
def test_simple_request_splits_queue_and_service():
    trace = [span(0.0, "arrival", 1), span(0.0, "admit", 1),
             span(1.0, "dispatch", 1), span(3.0, "complete", 1)]
    stats = bottleneck_breakdown(trace)["a"]
    assert stats.completed == 1
    assert stats.totals == {"queue": 1.0, "reroute": 0.0, "service": 2.0}
    assert stats.total_s == 3.0
    assert stats.dominant == "service"
    assert stats.share("service") == 2.0 / 3.0


def test_evicted_request_charges_the_reroute_stage():
    # arrival 0, first dispatch 1, evicted 2, re-dispatched 5, done 6:
    # queue runs to the eviction, reroute to the *last* dispatch.
    trace = [span(0.0, "arrival", 7), span(1.0, "dispatch", 7),
             span(2.0, "evict", 7), span(5.0, "dispatch", 7),
             span(6.0, "complete", 7)]
    stats = bottleneck_breakdown(trace)["a"]
    assert stats.totals == {"queue": 2.0, "reroute": 3.0, "service": 1.0}
    assert stats.dominant == "reroute"


def test_incomplete_and_screen_events_are_skipped():
    trace = [
        # No complete span: truncated by ring wraparound, must not count.
        span(0.0, "arrival", 1), span(1.0, "dispatch", 1),
        # Screen events carry kernel ids in the request slot: ignored.
        span(0.5, "screen", 1, "ATAX", 0, (2, 0.4)),
        # Rejected request: never dispatched, never counted.
        span(0.0, "arrival", 2), span(0.0, "reject", 2),
    ]
    stats = bottleneck_breakdown(trace)
    assert stats["__all__"].completed == 0
    assert stats["__all__"].dominant is None


def test_aggregate_sums_across_tenants():
    trace = [span(0.0, "arrival", 1, "a"), span(1.0, "dispatch", 1, "a"),
             span(2.0, "complete", 1, "a"),
             span(0.0, "arrival", 2, "b"), span(3.0, "dispatch", 2, "b"),
             span(4.0, "complete", 2, "b")]
    stats = bottleneck_breakdown(trace)
    assert stats["a"].completed == 1 and stats["b"].completed == 1
    assert stats["__all__"].completed == 2
    assert stats["__all__"].totals["queue"] == 4.0
    assert stats["__all__"].totals["service"] == 2.0


def test_dominant_tie_breaks_toward_the_earlier_stage():
    trace = [span(0.0, "arrival", 1), span(1.0, "dispatch", 1),
             span(2.0, "complete", 1)]
    stats = bottleneck_breakdown(trace)["a"]
    assert stats.totals["queue"] == stats.totals["service"] == 1.0
    assert stats.dominant == "queue"


def test_accepts_tracer_or_bare_event_iterable():
    tracer = Tracer(capacity=16)
    events = [span(0.0, "arrival", 1), span(1.0, "dispatch", 1),
              span(2.0, "complete", 1)]
    for event in events:
        tracer.span(*event)
    assert bottleneck_breakdown(tracer) == bottleneck_breakdown(events)


# --------------------------------------------------------------------------- #
# Reconciliation against real runs                                             #
# --------------------------------------------------------------------------- #
def test_serving_stage_sums_reconcile_with_end_to_end_latency():
    scenario = ServingScenario(
        process="poisson", offered_rps=60.0, duration_s=0.8, seed=3,
        tenants=TENANTS,
        admission=PolicySpec("queue_depth", {"max_tenant_depth": 24}))
    session = ServingSession(scenario,
                             PlatformConfig(system="IntraO3",
                                            input_scale=0.01),
                             obs=ObsConfig())
    report = session.run()
    stats = bottleneck_breakdown(session.tracer)
    assert stats["__all__"].completed == report.completed

    # The three stages partition each request's latency exactly: fold
    # arrival/complete times straight from the trace and compare sums.
    end_to_end = {}
    for t, phase, rid, tenant, device, aux in session.tracer:
        if phase == "arrival":
            end_to_end[rid] = -t
        elif phase == "complete":
            end_to_end[rid] += t
    total = sum(v for v in end_to_end.values() if v >= 0)
    assert abs(stats["__all__"].total_s - total) < 1e-9
    per_tenant = sum(stats[name].total_s for name in stats
                     if name != "__all__")
    assert abs(per_tenant - stats["__all__"].total_s) < 1e-9


def test_cluster_fault_run_charges_reroute_time():
    scenario = ServingScenario(
        process="poisson", offered_rps=120.0, duration_s=0.8, seed=3,
        tenants=TENANTS,
        admission=PolicySpec("queue_depth", {"max_tenant_depth": 24}))
    cluster = ClusterConfig.homogeneous(
        2, PlatformConfig(system="IntraO3", input_scale=0.1),
        faults=(FaultSpec(0.4, 1, "failed"),))
    session = ClusterSession(scenario, cluster, obs=ObsConfig())
    report = session.run()
    assert report.reroutes > 0
    stats = bottleneck_breakdown(session.tracer)
    assert stats["__all__"].totals["reroute"] > 0.0
    for stage in STAGES:
        assert stats["__all__"].totals[stage] >= 0.0


# --------------------------------------------------------------------------- #
# Rendering                                                                    #
# --------------------------------------------------------------------------- #
def test_format_bottleneck_names_the_dominant_stage():
    trace = [span(0.0, "arrival", 1, "web"), span(1.0, "dispatch", 1, "web"),
             span(5.0, "complete", 1, "web")]
    text = format_bottleneck(bottleneck_breakdown(trace))
    for header in ("tenant", "completed", "queue_ms", "reroute_ms",
                   "service_ms", "total_ms", "dominant"):
        assert header in text
    assert "web" in text
    assert "Dominant stage:" in text
    assert "service" in text
    # The aggregate row closes the table.
    lines = [line for line in text.splitlines() if "__all__" in line]
    assert lines, "aggregate row missing"


def test_format_bottleneck_empty_breakdown():
    text = format_bottleneck(bottleneck_breakdown([]))
    assert "Bottleneck breakdown" in text
    assert "Dominant stage:" not in text
