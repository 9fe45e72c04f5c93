"""Unit tests for admission control and the serving front-end/dispatcher."""

import pytest

from repro.serve import (
    DeadlineAwareAdmission,
    QueueDepthAdmission,
    Request,
    RequestStatus,
    ServingFrontend,
    SLOTracker,
)
from repro.policy import build_policy
from repro.serve.backends import ServingBackend
from repro.sim import Environment


class StubBackend(ServingBackend):
    """Fixed-service-time backend for front-end tests."""

    def __init__(self, env, capacity=2, service_s=0.1):
        super().__init__(env, kernel_factory=None, capacity=capacity)
        self.service_s = service_s
        self.order = []

    def dispatch(self, record, on_complete):
        self.in_flight += 1
        self.dispatched += 1
        self.order.append(record.request.request_id)
        self.env.spawn(self._serve(record, on_complete))

    def _serve(self, record, on_complete):
        yield self.env.timeout(self.service_s)
        self.in_flight -= 1
        on_complete(record, self.env.now)


def make_frontend(env, tenants=("a", "b"), capacity=2, service_s=0.1,
                  admission=None):
    backend = StubBackend(env, capacity=capacity, service_s=service_s)
    tracker = SLOTracker(tenants)
    frontend = ServingFrontend(
        env, backend,
        admission or build_policy("admission", "none"), tracker, tenants)
    return frontend, backend, tracker


def request(i, tenant="a", arrival=0.0, slo=None):
    return Request(request_id=i, tenant=tenant, workload="ATAX",
                   arrival_s=arrival, slo_s=slo)


def test_frontend_dispatches_up_to_capacity_and_completes():
    env = Environment()
    frontend, backend, tracker = make_frontend(env, capacity=2,
                                               service_s=0.1)

    def arrivals():
        for i in range(5):
            frontend.submit(request(i, "a"))
        frontend.close()
        yield env.timeout(0)

    env.process(arrivals())
    env.run()
    assert tracker.completed == 5
    assert tracker.aggregate.rejected == 0
    assert backend.dispatched == 5
    assert frontend.drained
    # Two at a time: 5 requests x 0.1 s over capacity 2 -> 0.3 s makespan.
    assert env.now == pytest.approx(0.3)
    account = tracker.account("a")
    assert account.latency.count == 5
    assert account.latency.max == pytest.approx(0.3)


def test_frontend_round_robin_across_tenants():
    env = Environment()
    frontend, backend, _tracker = make_frontend(env, capacity=1,
                                                service_s=0.05)

    def arrivals():
        # Tenant a floods first, then tenant b files two requests; with
        # round-robin dispatch b must not wait for all of a's backlog.
        for i in range(4):
            frontend.submit(request(i, "a"))
        for i in range(4, 6):
            frontend.submit(request(i, "b"))
        frontend.close()
        yield env.timeout(0)

    env.process(arrivals())
    env.run()
    # First dispatch happens while only tenant a has arrivals; after that
    # the queues alternate.
    assert backend.order[:4] == [0, 4, 1, 5]


def test_queue_depth_admission_rejects_excess():
    env = Environment()
    admission = QueueDepthAdmission(max_tenant_depth=2)
    frontend, _backend, tracker = make_frontend(
        env, tenants=("a",), capacity=1, service_s=1.0, admission=admission)

    def arrivals():
        for i in range(6):
            frontend.submit(request(i, "a"))
            yield env.timeout(0)     # let the dispatcher react per arrival
        frontend.close()

    env.process(arrivals())
    env.run()
    # One dispatched immediately, two queued, the rest rejected on arrival.
    assert tracker.aggregate.rejected == 3
    assert tracker.completed == 3
    rejected = [r for r in frontend.records
                if r.status is RequestStatus.REJECTED]
    assert len(rejected) == 3
    assert all(r.latency_s is None for r in rejected)


def test_deadline_admission_learns_and_rejects():
    admission = DeadlineAwareAdmission(ewma_alpha=0.5)

    class View:
        total_queued = 10
        in_flight = 2
        dispatch_capacity = 2

        def queue_depth(self, tenant):
            return 10

    view = View()
    generous = request(0, "a", slo=100.0)
    tight = request(1, "a", slo=0.5)
    # Before any completion feedback the estimator is blind, so the
    # cold-start window is bounded: a 12-deep backlog over capacity 2
    # exceeds the default two dispatch waves and is rejected, not
    # admitted blindly (the pre-fix behavior).
    assert not admission.admit(tight, view)
    admission.observe_service_time(0.2)
    # Backlog of 12 over capacity 2 -> 6 waves of 0.2 s + own service.
    assert admission.estimated_completion_s(view) == pytest.approx(1.4)
    assert not admission.admit(tight, view)
    assert admission.admit(generous, view)
    # EWMA follows the service-time signal.
    admission.observe_service_time(0.4)
    assert admission.service_estimate_s == pytest.approx(0.3)


def test_deadline_admission_in_frontend_rejects_hopeless_requests():
    env = Environment()
    admission = DeadlineAwareAdmission(ewma_alpha=1.0)
    frontend, _backend, tracker = make_frontend(
        env, tenants=("a",), capacity=1, service_s=0.2, admission=admission)

    def arrivals():
        frontend.submit(request(0, "a", slo=0.3))
        yield env.timeout(0.25)          # first completes, estimator learns
        for i in range(1, 6):
            frontend.submit(request(i, "a", slo=0.3))
        frontend.close()

    env.process(arrivals())
    env.run()
    # 0.2 s service vs. 0.3 s SLO: one more request fits, the backlog
    # beyond it is rejected at arrival instead of timing out in queue.
    assert tracker.completed >= 2
    assert tracker.aggregate.rejected >= 2
    assert tracker.completed + tracker.aggregate.rejected == 6


def test_build_admission_rejects_unknown_policy():
    with pytest.raises(ValueError):
        build_policy("admission", "magic")


def test_frontend_rejects_unknown_tenant():
    env = Environment()
    frontend, _backend, _tracker = make_frontend(env, tenants=("a",))
    with pytest.raises(ValueError):
        frontend.submit(request(0, "nobody"))
