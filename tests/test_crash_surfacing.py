"""Failure drills for push-based crash surfacing.

Backend, service, worker and background-loop processes (the baseline
batch driver, the autoscaler control loop, the metrics sampler) are
started with ``Environment.spawn``: a crash re-raises its original
exception out of the engine loop, with no per-event health polling.
Each drill injects a crash mid-run and checks that the run raises that
exception promptly and returns no report; the watchdog drills check that
a wedged run still fails with its stall message.
"""

import os
import time

import pytest

from helpers import StubBackend
from repro.baseline import BaselineSystem
from repro.cluster.autoscale import QueueDepthThresholdAutoscaler
from repro.cluster.parallel import (
    ParallelClusterSession,
    ParallelConfig,
    _ShardGroup,
)
from repro.cluster.session import ClusterSession
from repro.core import FlashAbacusAccelerator
from repro.eval import run_system
from repro.obs import ObsConfig
from repro.obs.metrics import Gauge
from repro.platform.cluster import ClusterConfig
from repro.platform.config import PlatformConfig
from repro.policy import PolicySpec, build_policy
from repro.serve import Request, ServingFrontend, SLOTracker
from repro.serve.backends import AcceleratorBackend
from repro.serve.session import (
    ServingScenario,
    ServingSession,
    drive_until_settled,
)
from repro.sim.engine import Environment
from repro.workloads import homogeneous_workload

#: Host-time bound on every drill: a crash must surface promptly, not
#: after the run has simulated to the end (or hung).
WALL_BOUND_S = 30.0


class Boom(RuntimeError):
    """The injected crash."""


def crash_submit_after(monkeypatch, survivors: int) -> list:
    """Make the accelerator's per-request offload raise after
    ``survivors`` successful submissions; returns the call log."""
    original = FlashAbacusAccelerator.submit_kernel
    calls = []

    def submit_kernel(self, kernel):
        calls.append(kernel.kernel_id)
        if len(calls) > survivors:
            raise Boom(f"offload {len(calls)} crashed")
        yield from original(self, kernel)

    monkeypatch.setattr(FlashAbacusAccelerator, "submit_kernel",
                        submit_kernel)
    return calls


def scenario() -> ServingScenario:
    return ServingScenario(process="poisson", offered_rps=60.0,
                           duration_s=2.0, seed=3)


def device() -> PlatformConfig:
    return PlatformConfig(input_scale=0.01)


def assert_crashes(run) -> None:
    start = time.perf_counter()
    with pytest.raises(Boom, match="crashed"):
        run()
    assert time.perf_counter() - start < WALL_BOUND_S


def test_serving_session_surfaces_backend_crash(monkeypatch):
    calls = crash_submit_after(monkeypatch, survivors=20)
    session = ServingSession(scenario(), device())
    assert_crashes(session.run)
    # The crash surfaced at the first failing offload, mid-run.
    assert len(calls) == 21


def test_serial_cluster_surfaces_backend_crash(monkeypatch):
    calls = crash_submit_after(monkeypatch, survivors=30)
    cluster = ClusterConfig.homogeneous(2, device())
    assert_crashes(ClusterSession(scenario(), cluster).run)
    assert len(calls) == 31


def test_inline_parallel_cluster_surfaces_backend_crash(monkeypatch):
    calls = crash_submit_after(monkeypatch, survivors=30)
    cluster = ClusterConfig.homogeneous(2, device())
    session = ParallelClusterSession(scenario(), cluster,
                                     ParallelConfig(workers=1))
    assert_crashes(session.run)
    assert len(calls) == 31
    assert session.execution_stats == {}


def test_killed_forked_worker_is_named_in_the_error(monkeypatch):
    """A forked worker that dies without shipping an error (killed, or
    ``os._exit``) only closes its pipe; the run still fails fast, naming
    the worker slot, its devices, its exit code and the epoch end."""
    def run_epoch(self, *args):
        os._exit(9)

    monkeypatch.setattr(_ShardGroup, "run_epoch", run_epoch)
    cluster = ClusterConfig.homogeneous(4, device())
    session = ParallelClusterSession(scenario(), cluster,
                                     ParallelConfig(workers=2))
    start = time.perf_counter()
    with pytest.raises(RuntimeError,
                       match=r"cluster worker 0 \(devices \[0, 2\]\) died "
                             r"in run_epoch to t=\S+s: exit code 9"):
        session.run()
    assert time.perf_counter() - start < WALL_BOUND_S


def test_run_workload_surfaces_worker_crash(monkeypatch):
    original = FlashAbacusAccelerator._execute_screen
    screens = []

    def execute_screen(self, *args):
        screens.append(args)
        if len(screens) > 5:
            raise Boom(f"screen {len(screens)} crashed")
        yield from original(self, *args)

    monkeypatch.setattr(FlashAbacusAccelerator, "_execute_screen",
                        execute_screen)
    kernels = homogeneous_workload("ATAX", instances=3, input_scale=0.02)
    assert_crashes(lambda: run_system(PlatformConfig(), kernels, "ATAX"))
    assert len(screens) == 6


def test_crash_during_final_drain_surfaces(monkeypatch):
    """A crash after the last request settled, while the session drains
    Storengine's buffered writes."""
    original = AcceleratorBackend.finish

    def finish(self):
        original(self)

        def crash():
            yield self.env.timeout(1e-3)
            raise Boom("drain crashed")

        self.env.spawn(crash())

    monkeypatch.setattr(AcceleratorBackend, "finish", finish)
    assert_crashes(ServingSession(scenario(), device()).run)


def test_baseline_batch_driver_surfaces_kernel_crash(monkeypatch):
    original = BaselineSystem._run_kernel
    started = []

    def run_kernel(self, kernel, breakdown):
        started.append(kernel.kernel_id)
        if len(started) == 2:
            raise Boom(f"kernel {len(started)} crashed")
        yield from original(self, kernel, breakdown)

    monkeypatch.setattr(BaselineSystem, "_run_kernel", run_kernel)
    system = BaselineSystem()
    kernels = homogeneous_workload("ATAX", instances=3, input_scale=0.02)
    assert_crashes(lambda: system.run_workload(kernels, "ATAX"))
    # The batch stopped at the crashing kernel: one of three completed.
    assert len(started) == 2
    assert len(system.completion_times) == 1


def test_autoscaler_policy_crash_surfaces(monkeypatch):
    ticks = []

    def target(self, signals):
        ticks.append(signals.now)
        if len(ticks) == 3:
            raise Boom(f"autoscaler tick {len(ticks)} crashed")
        return signals.active_devices

    monkeypatch.setattr(QueueDepthThresholdAutoscaler, "target", target)
    cluster = ClusterConfig.homogeneous(
        1, device(), autoscaler_spec=PolicySpec("queue_depth_threshold"),
        min_devices=1, max_devices=2, autoscale_interval_s=0.1)
    assert_crashes(ClusterSession(scenario(), cluster).run)
    assert len(ticks) == 3


def test_metrics_instrument_crash_surfaces(monkeypatch):
    original = Gauge.sample
    crashed = []

    def sample(self, now):
        # One crash mid-run; the final sample at settle time would
        # succeed, so a sampler that died silently would go unnoticed.
        if now >= 0.5 and not crashed:
            crashed.append(now)
            raise Boom(f"gauge sample at t={now:.2f}s crashed")
        return original(self, now)

    monkeypatch.setattr(Gauge, "sample", sample)
    session = ServingSession(scenario(), device(),
                             obs=ObsConfig(tracing=False))
    assert_crashes(session.run)
    assert session.metrics is None


# --------------------------------------------------------------------------- #
# Stall watchdog                                                               #
# --------------------------------------------------------------------------- #
class WedgedBackend(StubBackend):
    """Accepts work and never completes it."""

    def _serve(self, record, on_complete):
        yield self.env.event()


def wedged_tracker(env) -> SLOTracker:
    """One admitted request stuck on a backend that never completes."""
    backend = WedgedBackend(env, capacity=1)
    tracker = SLOTracker(["a"])
    frontend = ServingFrontend(env, backend,
                               build_policy("admission", "none"),
                               tracker, ["a"])
    frontend.submit(Request(request_id=0, tenant="a", workload="ATAX",
                            arrival_s=0.0))
    return tracker


def test_watchdog_trips_when_no_request_settles():
    env = Environment()
    tracker = wedged_tracker(env)

    def ticker():      # keeps the queue busy, like Storengine's poll
        while True:
            yield env.timeout(1.0)

    env.process(ticker())
    with pytest.raises(RuntimeError,
                       match="no request settled for 60 simulated seconds"):
        drive_until_settled(env, tracker, expected=1, duration_s=1.0)
    # The watchdog samples progress lazily but trips within two horizons.
    assert 60.0 < env.now <= 121.0


def test_watchdog_reports_an_empty_queue():
    env = Environment()
    tracker = wedged_tracker(env)
    with pytest.raises(RuntimeError,
                       match=r"serving run stalled: 0/1 requests settled"):
        drive_until_settled(env, tracker, expected=1, duration_s=1.0)


def never_complete(monkeypatch) -> None:
    """Completions never reach the front-ends while Storengine keeps
    polling: only the watchdog can end the run."""
    monkeypatch.setattr(AcceleratorBackend, "_on_kernel_complete",
                        lambda self, kernel, now: None)


def assert_trips_watchdog(run, match: str) -> None:
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=match):
        run()
    assert time.perf_counter() - start < WALL_BOUND_S


def test_wedged_serving_session_trips_watchdog(monkeypatch):
    never_complete(monkeypatch)
    assert_trips_watchdog(ServingSession(scenario(), device()).run,
                          "serving run stalled: no request settled")


def test_wedged_serial_cluster_trips_watchdog(monkeypatch):
    never_complete(monkeypatch)
    cluster = ClusterConfig.homogeneous(2, device())
    assert_trips_watchdog(ClusterSession(scenario(), cluster).run,
                          "cluster run stalled: no request settled")


def test_wedged_inline_parallel_cluster_trips_watchdog(monkeypatch):
    never_complete(monkeypatch)
    cluster = ClusterConfig.homogeneous(2, device())
    session = ParallelClusterSession(scenario(), cluster,
                                     ParallelConfig(workers=1))
    # The first shard to drain names itself in the message.
    assert_trips_watchdog(session.run,
                          r"device 0 stalled: no request settled for "
                          r"60 simulated seconds \(\d+ requests settled "
                          r"while draining")
