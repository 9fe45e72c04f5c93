"""Observability layer: zero-cost when off, deterministic when on.

The two contract halves of ``repro.obs`` (ARCHITECTURE.md,
"Observability"):

* **disabled** — a run without an :class:`ObsConfig` produces reports
  byte-identical to an instrumented run minus the ``metrics`` payload
  (tracing and sampling only *read* simulation state);
* **enabled** — the same seed produces the same spans, the same
  Chrome ``trace_event`` export bytes, and span counts that reconcile
  exactly with the report's conserved request counters.
"""

import json

import pytest

from repro.cluster import ClusterSession
from repro.eval import ClusterExperimentSpec, ServingExperimentSpec
from repro.cluster.parallel import ParallelConfig
from repro.obs import (
    MetricsBus,
    MetricsTimeline,
    ObsConfig,
    Tracer,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.platform import ClusterConfig, FaultSpec, PlatformConfig
from repro.policy import PolicySpec
from repro.serve import (
    ServingReport,
    ServingScenario,
    ServingSession,
    TenantSpec,
)

SCALE = 0.01
TENANTS = (TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25))


def scenario(**overrides):
    kwargs = {"process": "poisson", "offered_rps": 60.0, "duration_s": 0.8,
              "seed": 3, "tenants": TENANTS,
              "admission": PolicySpec("queue_depth", {"max_tenant_depth": 24})}
    kwargs.update(overrides)
    return ServingScenario(**kwargs)


def config(**overrides):
    kwargs = {"system": "IntraO3", "input_scale": SCALE}
    kwargs.update(overrides)
    return PlatformConfig(**kwargs)


def serving_session(obs=None, **scenario_overrides):
    session = ServingSession(scenario(**scenario_overrides), config(),
                             obs=obs)
    report = session.run()
    return session, report


#: Cluster fault fixture: service heavy enough (input_scale) that the
#: failing device still holds queued backlog at fault time, so the trace
#: exercises evict/reroute, not just the happy path.
FAULT_SCENARIO_KW = {"offered_rps": 120.0, "duration_s": 0.8}


def faulty_cluster(devices=2):
    return ClusterConfig.homogeneous(
        devices, config(input_scale=0.1),
        faults=(FaultSpec(0.4, devices - 1, "failed"),))


# --------------------------------------------------------------------------- #
# Zero cost when disabled                                                      #
# --------------------------------------------------------------------------- #
def test_obs_run_report_matches_plain_run_minus_metrics():
    _, plain = serving_session(obs=None)
    session, observed = serving_session(obs=ObsConfig())
    observed_dict = observed.to_dict()
    assert observed_dict.pop("metrics") is not None
    assert observed_dict == plain.to_dict()
    assert "metrics" not in plain.to_dict()
    assert session.tracer is not None and session.metrics is not None


def test_fully_disabled_obs_config_is_inert():
    obs = ObsConfig(tracing=False, metrics=False)
    assert not obs.enabled
    _, plain = serving_session(obs=None)
    session, report = serving_session(obs=obs)
    assert session.tracer is None and session.metrics is None
    assert report.to_dict() == plain.to_dict()


def test_cluster_obs_run_report_matches_plain_run_minus_metrics():
    base = scenario(**FAULT_SCENARIO_KW)
    plain = ClusterSession(base, faulty_cluster()).run()
    observed = ClusterSession(base, faulty_cluster(),
                              obs=ObsConfig()).run()
    observed_dict = observed.to_dict()
    assert observed_dict.pop("metrics") is not None
    assert observed_dict == plain.to_dict()


# --------------------------------------------------------------------------- #
# Determinism when enabled                                                     #
# --------------------------------------------------------------------------- #
def test_same_seed_trace_is_byte_identical():
    session_a, _ = serving_session(obs=ObsConfig())
    session_b, _ = serving_session(obs=ObsConfig())
    assert list(session_a.tracer) == list(session_b.tracer)

    def dump(session):
        return json.dumps(to_chrome_trace(session.tracer, label="x"),
                          sort_keys=True)

    assert dump(session_a) == dump(session_b)


def test_same_seed_cluster_trace_is_byte_identical():
    runs = []
    for _ in range(2):
        session = ClusterSession(scenario(**FAULT_SCENARIO_KW), faulty_cluster(),
                                 obs=ObsConfig())
        session.run()
        runs.append(json.dumps(to_chrome_trace(session.tracer, label="x"),
                               sort_keys=True))
    assert runs[0] == runs[1]


# --------------------------------------------------------------------------- #
# Span <-> report conservation                                                 #
# --------------------------------------------------------------------------- #
def test_serving_span_counts_reconcile_with_report():
    session, report = serving_session(obs=ObsConfig())
    counts = session.tracer.phase_counts()
    assert session.tracer.dropped == 0
    assert counts.get("arrival", 0) == report.offered
    assert counts.get("admit", 0) == report.admitted
    assert counts.get("reject", 0) == report.rejected
    assert counts.get("complete", 0) == report.completed
    assert counts.get("dispatch", 0) >= report.completed
    # Every admitted request entered service exactly as often as the
    # backend accepted a dispatch.
    assert counts.get("service_begin", 0) == counts.get("dispatch", 0)


def test_cluster_span_counts_reconcile_with_report():
    session = ClusterSession(scenario(**FAULT_SCENARIO_KW), faulty_cluster(),
                             obs=ObsConfig())
    report = session.run()
    counts = session.tracer.phase_counts()
    assert counts.get("arrival", 0) == report.offered
    assert counts.get("admit", 0) == report.admitted
    assert counts.get("reject", 0) == report.rejected
    assert counts.get("complete", 0) == report.completed
    # The injected fault moved backlog off the failed device: every
    # eviction pairs with exactly one reroute span, and the pair count
    # is the report's placement counter.
    assert report.reroutes > 0
    assert counts.get("evict", 0) == counts.get("reroute", 0)
    assert counts.get("reroute", 0) >= report.reroutes


# --------------------------------------------------------------------------- #
# Ring buffer accounting                                                       #
# --------------------------------------------------------------------------- #
def test_ring_buffer_drops_oldest_and_counts_losses():
    tracer = Tracer(capacity=4)
    for i in range(10):
        tracer.span(float(i), "arrival", i, "a")
    assert len(tracer) == 4
    assert tracer.recorded == 10
    assert tracer.dropped == 6
    # Oldest events dropped first: the survivors are the newest four.
    assert [event[2] for event in tracer] == [6, 7, 8, 9]


def test_tiny_capacity_run_reports_drops_not_errors():
    session, _ = serving_session(obs=ObsConfig(trace_capacity=16))
    tracer = session.tracer
    assert len(tracer) == 16
    assert tracer.dropped == tracer.recorded - 16 > 0


def test_tracer_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


# --------------------------------------------------------------------------- #
# Metrics bus                                                                  #
# --------------------------------------------------------------------------- #
def test_metrics_timeline_round_trips_through_report():
    session, report = serving_session(obs=ObsConfig())
    assert report.metrics is not None
    rebuilt = MetricsTimeline.from_dict(report.metrics)
    assert rebuilt.series == session.metrics.series
    assert rebuilt.cadence_s == session.metrics.cadence_s
    # And through the report's own serialization.
    clone = ServingReport.from_dict(report.to_dict())
    assert clone.metrics == report.metrics


def test_serving_metrics_cover_the_wired_signal_families():
    session, _ = serving_session(obs=ObsConfig())
    names = session.metrics.names()
    for family in ("queue_depth.a", "queue_depth.b", "queue_depth.total",
                   "admitted_rps", "in_flight", "rolling_p99_s",
                   "lwp_utilization", "energy_w", "latency_window_s"):
        assert any(name.startswith(family) for name in names), (
            f"no series for {family}: {names}")


def test_bus_sample_is_idempotent_per_timestamp():
    bus = MetricsBus(cadence_s=0.5)
    bus.gauge("depth", lambda: 3.0)
    bus.sample(1.0)
    bus.sample(1.0)
    assert bus.timeline.values("depth") == [(1.0, 3.0)]


def test_rate_instrument_first_tick_is_baseline_only():
    total = {"v": 0.0}
    bus = MetricsBus(cadence_s=1.0)
    bus.rate("r", lambda: total["v"])
    bus.sample(0.0)
    assert bus.timeline.values("r") == []
    total["v"] = 10.0
    bus.sample(2.0)
    assert bus.timeline.values("r") == [(2.0, 5.0)]


def test_gauge_none_and_empty_histogram_leave_gaps():
    bus = MetricsBus(cadence_s=1.0)
    bus.gauge("g", lambda: None)
    hist = bus.histogram("h")
    bus.sample(1.0)
    assert bus.timeline.series == {}
    hist.observe(2.0)
    hist.observe(4.0)
    bus.sample(2.0)
    assert bus.timeline.values("h.count") == [(2.0, 2.0)]
    assert bus.timeline.values("h.mean") == [(2.0, 3.0)]


def test_duplicate_instrument_name_rejected():
    bus = MetricsBus(cadence_s=1.0)
    bus.counter("c")
    with pytest.raises(ValueError):
        bus.counter("c")


# --------------------------------------------------------------------------- #
# Chrome trace export                                                          #
# --------------------------------------------------------------------------- #
def test_serving_export_validates_clean():
    session, _ = serving_session(obs=ObsConfig())
    data = to_chrome_trace(session.tracer, label="serving")
    assert validate_chrome_trace(data) == []
    assert data["traceEvents"]


def test_cluster_export_validates_clean():
    session = ClusterSession(scenario(**FAULT_SCENARIO_KW), faulty_cluster(),
                             obs=ObsConfig())
    session.run()
    data = to_chrome_trace(session.tracer, label="cluster")
    assert validate_chrome_trace(data) == []


def test_validator_flags_malformed_traces():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []


# --------------------------------------------------------------------------- #
# Interplay with experiment specs                                              #
# --------------------------------------------------------------------------- #
def test_obs_folds_into_experiment_cache_keys_only_when_set():
    plain_a = ServingExperimentSpec(scenario=scenario(), config=config())
    plain_b = ServingExperimentSpec(scenario=scenario(), config=config())
    observed = ServingExperimentSpec(scenario=scenario(), config=config(),
                                     obs=ObsConfig())
    assert plain_a.key == plain_b.key
    assert observed.key != plain_a.key

    cluster = faulty_cluster()
    plain_c = ClusterExperimentSpec(scenario=scenario(), cluster=cluster)
    observed_c = ClusterExperimentSpec(scenario=scenario(), cluster=cluster,
                                       obs=ObsConfig())
    assert observed_c.key != plain_c.key


def test_cluster_spec_with_obs_forces_the_serial_session():
    # The epoch-parallel runner cannot stitch per-worker tracers; an
    # observed spec must take the serial path even when parallel is set.
    spec = ClusterExperimentSpec(
        scenario=scenario(**FAULT_SCENARIO_KW), cluster=faulty_cluster(),
        parallel=ParallelConfig(), obs=ObsConfig())
    report = spec.execute()
    assert report.metrics is not None
    serial = ClusterSession(scenario(**FAULT_SCENARIO_KW), faulty_cluster(),
                            obs=ObsConfig()).run()
    assert report.to_dict() == serial.to_dict()

