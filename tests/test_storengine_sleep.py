"""Storengine's idle sleep against the polling loop it replaced.

The modelled firmware checks for work on a 2 ms grid.  Storengine keeps
that grid but sleeps through checks whose outcome is known: it waits on
one timeout at the first grid tick where the journal falls due, and the
write buffer growing, an allocation leaving the allocator needing GC,
or ``stop()`` wake it at the first grid tick at or after the wake.

:class:`PollingStorengine` is the old loop — one timeout per grid tick —
and serves as the oracle.  Every test here runs the same schedule under
both and asserts the same Storengine counters, backbone bytes, energy
breakdown and clock after the drain.

Tie rule: a wake at exactly a grid tick re-keys the sleep to that tick.
The polling loop agrees when its check at that tick had not run yet,
and checks one tick later when it had; which of the two happened
depends on the order of same-instant events, which the sleeping loop
does not simulate.  The generated schedules therefore drop examples
where an action lands exactly on one of the oracle's idle checks, and
``test_wake_at_exactly_a_grid_tick_rekeys_to_that_tick`` pins the rule
on a schedule where both loops agree.
"""

import signal
from dataclasses import astuple

import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from repro.core import (
    FlashAbacusAccelerator,
    accelerator as accelerator_module,
)
from repro.core.flashvisor import Flashvisor
from repro.core import storengine as storengine_module
from repro.core.storengine import Storengine
from repro.flash.backbone import FlashBackbone
from repro.flash.ftl import OutOfSpaceError
from repro.hw.lwp import LWPCluster
from repro.hw.memory import DDR3L, Scratchpad
from repro.hw.power import STORAGE_ACCESS, EnergyAccountant, PowerMonitor
from repro.platform import PlatformConfig
from repro.serve import ServingScenario, ServingSession
from repro.sim import Environment
from repro.workloads import heterogeneous_workload


class PollingStorengine(Storengine):
    """The reference loop: one idle check per grid tick, and every step
    of a journal dump simulated as its own event.

    ``idle_checks`` records the instant of every check that found no
    work, so a schedule can tell whether one of its actions tied with a
    check the sleeping loop skips.
    """

    def _run(self):
        self.idle_checks = []
        self.dumps = []
        while not self._stopped:
            did_work = False
            if self.flashvisor.pending_flush_bytes > 0:
                yield from self._flush_some()
                did_work = True
            if self.flashvisor.allocator.needs_gc():
                yield from self._collect_garbage()
                did_work = True
            if (self.env.now - self._last_journal) >= self.journal_interval_s:
                yield from self._journal_metadata(self.env.now)
                did_work = True
            if not did_work:
                self.idle_checks.append(self.env.now)
                yield self.env.timeout(self.poll_interval_s)

    def _journal_metadata(self, start):
        # ``dumps`` records each dump's (begin, busy end, program end).
        snapshot_bytes = 2 * self.backbone.spec.page_bytes
        yield from self.lwp.busy_for(20e-6, bucket=STORAGE_ACCESS)
        issued = self.env.now
        yield from self.backbone.bulk_program(snapshot_bytes)
        self.stats.journal_dumps += 1
        self._last_journal = self.env.now
        self.dumps.append((start, issued, self.env.now))
        return self.env.now


def device_state(storengine):
    """Everything a schedule compares between the two loops."""
    backbone = storengine.backbone
    monitor = backbone.power_monitor
    fu_series = storengine.lwp.activity.series
    return {
        "stats": astuple(storengine.stats),
        "bulk_bytes_written": backbone.bulk_bytes_written,
        "bytes_read": backbone.bytes_read(),
        "bytes_written": backbone.bytes_written(),
        "energy": storengine.energy.breakdown.as_dict(),
        "energy_by_component": dict(storengine.energy.by_component),
        "fu_series": (fu_series.to_dict()
                      if fu_series is not None else None),
        "power_series": (monitor.series.to_dict()
                         if monitor is not None else None),
        "now": storengine.env.now,
    }


# --------------------------------------------------------------------------- #
# Generated schedules on a bare Flashvisor + Storengine stack                  #
# --------------------------------------------------------------------------- #
#: (poll_interval_s, journal_interval_s) pairs.  The dyadic pair makes
#: ``tick - last_journal`` hit the journal interval exactly, so the
#: journal test's ``>=`` is exercised on its boundary.
INTERVALS = [(2e-3, 50e-3), (2e-3, 3e-3), (2.0 ** -9, 2.0 ** -7),
             (1e-4, 1e3)]

ACTION = st.tuples(
    st.floats(min_value=1e-6, max_value=12e-3),       # gap before it, s
    st.sampled_from(["deposit", "write"]),
    st.integers(1, 16))                               # 16 KB units / groups
SCHEDULE = st.fixed_dictionaries({
    "intervals": st.sampled_from(INTERVALS),
    "actions": st.lists(ACTION, max_size=14),
    # Index of the action stop() replaces the tail after; None stops
    # once every action ran.
    "stop_after": st.none() | st.integers(0, 13),
    "stop_gap": st.floats(min_value=1e-6, max_value=60e-3),
})


def build_stack(spec, flash_spec, storengine_cls, poll, journal):
    env = Environment()
    energy = EnergyAccountant()
    monitor = PowerMonitor(env)
    cluster = LWPCluster(env, spec.lwp, energy, monitor)
    ddr = DDR3L(env, spec.memory, energy)
    scratchpad = Scratchpad(env, spec.memory, energy)
    backbone = FlashBackbone(env, flash_spec, energy, power_monitor=monitor)
    flashvisor = Flashvisor(env, cluster.flashvisor_lwp, backbone, ddr,
                            scratchpad, spec.interconnect.message_queue_latency_s,
                            energy)
    storengine = storengine_cls(env, cluster.storengine_lwp, flashvisor,
                                backbone, energy, poll_interval_s=poll,
                                journal_interval_s=journal)
    return env, flashvisor, storengine


def run_schedule(spec, flash_spec, storengine_cls, schedule):
    """Play ``schedule``, stop, drain to an empty queue; return the
    Storengine state seen before every action, the final state and the
    instants the actions ran at."""
    poll, journal = schedule["intervals"]
    env, flashvisor, storengine = build_stack(spec, flash_spec,
                                              storengine_cls, poll, journal)
    group_bytes = flashvisor.geometry.page_group_bytes
    words_per_group = group_bytes // flashvisor.word_bytes
    seen, instants = [], []

    def driver():
        for index, (gap, kind, amount) in enumerate(schedule["actions"]):
            yield env.timeout(gap)
            instants.append(env.now)
            seen.append((env.now, astuple(storengine.stats)))
            if kind == "deposit":
                flashvisor.pending_flush_bytes += amount * 16 * 1024
            else:
                # Overwrite a few logical groups: stale rows pile up and
                # push the tiny backbone toward its GC threshold.
                try:
                    flashvisor.translate_write(
                        (index % 4) * words_per_group, amount * group_bytes)
                except OutOfSpaceError:
                    seen.append("out of space")
            if index == schedule["stop_after"]:
                break
        yield env.timeout(schedule["stop_gap"])
        instants.append(env.now)
        storengine.stop()
        yield env.process(storengine.drain())

    env.process(driver())
    try:
        env.run()
    except OutOfSpaceError:
        # GC's own migration found no free row (the tiny backbone's
        # limit): both loops must crash at the same instant.
        seen.append(("gc out of space", env.now))
    return seen, device_state(storengine), instants, storengine


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(schedule=SCHEDULE)
# Idle from t=0 on the dyadic grid: the first journal falls due exactly
# on a tick.
@example(schedule={"intervals": (2.0 ** -9, 2.0 ** -7), "actions": [],
                   "stop_after": None, "stop_gap": 0.05})
def test_sleeping_storengine_matches_the_polling_loop(spec, tiny_flash_spec,
                                                      schedule):
    expected_seen, expected, instants, oracle = run_schedule(
        spec, tiny_flash_spec, PollingStorengine, schedule)
    # Ties with a skipped check are governed by the tie rule (module
    # docstring), not by the order of same-instant events.
    assume(not set(instants) & set(oracle.idle_checks))
    seen, state, _instants, _storengine = run_schedule(
        spec, tiny_flash_spec, Storengine, schedule)
    assert seen == expected_seen
    assert state == expected


def test_wake_at_exactly_a_grid_tick_rekeys_to_that_tick(spec,
                                                         tiny_flash_spec):
    # Idle from t=0 on a dyadic grid, so tick 3 * poll is exact.  The
    # deposit's timeout is scheduled at t=0, before the polling loop
    # schedules its check for that tick, so the polling loop sees the
    # bytes at the tick itself — as the tie rule does.
    poll = 2.0 ** -9
    states = []
    for storengine_cls in (PollingStorengine, Storengine):
        env, flashvisor, storengine = build_stack(
            spec, tiny_flash_spec, storengine_cls, poll, 1e3)
        flush_starts = []
        flush_some = storengine._flush_some

        def recording_flush():
            flush_starts.append(env.now)
            yield from flush_some()

        storengine._flush_some = recording_flush

        def deposit(when):
            yield env.timeout_at(when)
            flashvisor.pending_flush_bytes += 64 * 1024

        env.process(deposit(3 * poll))
        env.run(until=8 * poll)
        storengine.stop()
        env.run()
        assert flush_starts == [3 * poll], storengine_cls
        states.append(device_state(storengine))
    assert states[0] == states[1]


def test_only_the_first_wake_of_a_sleep_moves_its_timeout(spec,
                                                          tiny_flash_spec):
    env, flashvisor, storengine = build_stack(spec, tiny_flash_spec,
                                              Storengine, 2e-3, 50e-3)
    env.run(until=1e-3)
    assert storengine._timer is not None          # asleep since t=0
    eid = env._eid
    for _ in range(5):
        flashvisor.pending_flush_bytes += 1024
    # One re-key (one fresh sequence number); the other wakes are no-ops.
    assert env._eid == eid + 1
    assert storengine._timer is None
    env.run(until=2e-3)                           # the flush has begun
    assert storengine.stats.flushed_bytes == 0 and storengine._timer is None
    eid = env._eid
    flashvisor.pending_flush_bytes += 1024        # a wake while awake
    assert env._eid == eid
    env.run(until=10e-3)
    assert storengine.stats.flushed_bytes == 6 * 1024
    assert flashvisor.pending_flush_bytes == 0


def play_with_horizons(spec, flash_spec, storengine_cls, ties, deliveries,
                       horizons, final):
    """Drive a stack the way the epoch runner drives a shard.

    ``ties`` are (kind, instant, amount) triples started at t=0, so they
    are on the heap before any Storengine step at the same instant: a
    ``"busy"`` tie keeps Flashvisor's LWP busy for ``amount`` seconds, a
    ``"deposit"`` tie adds ``amount`` bytes to the write buffer.  The loop runs
    ``run_events`` to each horizon and records the state there; at the
    third boundary it delivers the ``deliveries`` (deposits at later
    instants).  It then brings the clock to ``final``, stops Storengine,
    drains and runs to an empty queue.
    """
    env, flashvisor, storengine = build_stack(spec, flash_spec,
                                              storengine_cls, 2.0 ** -9,
                                              2.0 ** -7)

    def busy_at(when, seconds):
        yield env.timeout_at(when)
        yield from flashvisor.lwp.busy_for(seconds)

    def deposit_at(when, num_bytes=64 * 1024):
        yield env.timeout_at(when)
        flashvisor.pending_flush_bytes += num_bytes

    for kind, when, amount in ties:
        env.process(busy_at(when, amount) if kind == "busy"
                    else deposit_at(when, amount))
    seen = []
    for index, horizon in enumerate(horizons):
        env.run_events(horizon)
        state = device_state(storengine)
        # The clock reads the last *event*; a step applied ahead of it
        # is not one, so only the state is compared at a horizon.
        del state["now"]
        seen.append(state)
        if index == 2:
            for when in deliveries:
                env.process(deposit_at(when))
    env.run(until=final)
    storengine.stop()
    env.process(storengine.drain())
    env.run()
    return seen, device_state(storengine), storengine


def test_horizons_and_ties_inside_dump_windows_match_the_polling_loop(
        spec, tiny_flash_spec):
    # Idle from t=0 on a dyadic grid, the first three dumps' instants are
    # known up front: each begins on the first tick a journal interval
    # after the previous one ended.  Three foreign events tie with a
    # Storengine instant: busy periods at the first dump's busy end and
    # program end, and a deposit on the third dump's tick while nothing
    # else is pending.  The polling loop runs each tie first; a step
    # applied at its quiet bound (``<=`` for ``<``) would run first.
    poll, journal = 2.0 ** -9, 2.0 ** -7
    _env, _flashvisor, probe = build_stack(spec, tiny_flash_spec,
                                           Storengine, poll, journal)
    program = probe.backbone._bulk_program_lane.occupancy_time(
        2 * tiny_flash_spec.page_bytes)
    starts, ends = [journal], []
    for _ in range(2):
        ends.append(starts[-1] + 20e-6 + program)
        tick = ends[-1]
        while tick - ends[-1] < journal:
            tick = tick + poll
        starts.append(tick)
    # The first busy period outlasts the first dump, so the program end
    # is the next foreign instant when the program is issued.
    ties = [("busy", starts[0] + 20e-6, 2 * program),
            ("busy", ends[0], 1e-4), ("deposit", starts[2], 64 * 1024)]
    deliveries = [starts[2] + 0.013, starts[2] + 0.031]
    final = starts[2] + 0.08

    # Horizons inside the windows of the later dumps, at the instants a
    # dump window has (begin, busy end, program end) and between them.
    _seen, _state, reference = play_with_horizons(
        spec, tiny_flash_spec, PollingStorengine, ties, deliveries, [],
        final)
    horizons = []
    for start, issued, end in reference.dumps[3:]:
        horizons += [start + 10e-6, issued, (issued + end) / 2, end]
    assert len(horizons) >= 20

    expected = play_with_horizons(spec, tiny_flash_spec, PollingStorengine,
                                  ties, deliveries, horizons, final)
    seen, state, _storengine = play_with_horizons(
        spec, tiny_flash_spec, Storengine, ties, deliveries, horizons, final)
    assert seen == expected[0]
    assert state == expected[1]


def test_a_lone_storengine_stalls_instead_of_spinning(spec, tiny_flash_spec):
    # Storengine is the last process: no foreign event and no horizon
    # bound its replay.  Each resume applies at most _MAX_QUIET_CHECKS
    # idle checks, so the loop regains control and the watchdog trips.
    env, _flashvisor, storengine = build_stack(
        spec, tiny_flash_spec, Storengine, 2e-3, 50e-3)

    def spinning(signum, frame):
        raise AssertionError("one resume never returned to the loop")

    previous = signal.signal(signal.SIGALRM, spinning)
    signal.alarm(30)
    try:
        outcome = env.run_until(lambda: False, progress=lambda: 0,
                                stall_s=1.0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert outcome == "stalled"
    ahead = storengine._last_journal - env.now
    # A dump cycle (interval plus the dump itself) is under 2 * 50 ms.
    assert ahead < storengine_module._MAX_QUIET_CHECKS * 2 * 50e-3


# --------------------------------------------------------------------------- #
# Whole platforms: batch mixes and one short serving run                       #
# --------------------------------------------------------------------------- #
def batch_mix_state():
    accelerator = FlashAbacusAccelerator(
        config=PlatformConfig(system="IntraO3", input_scale=0.05))
    kernels = heterogeneous_workload("MX3", instances_per_kernel=1,
                                     input_scale=0.05)
    report = accelerator.run_workload(kernels, "MX3")
    accelerator.shutdown()
    accelerator.env.run()
    return report.to_dict(), device_state(accelerator.storengine)


def journal_heavy_state():
    # InterSt's longest makespan at this scale (13.6 s, 252 journal
    # dumps), with the Fig. 15b power series on: the report carries
    # fu_series, power_series and the energy breakdown.
    accelerator = FlashAbacusAccelerator(
        config=PlatformConfig(system="InterSt", input_scale=0.05,
                              track_power_series=True))
    kernels = heterogeneous_workload("MX6", instances_per_kernel=1,
                                     input_scale=0.05)
    report = accelerator.run_workload(kernels, "MX6")
    accelerator.shutdown()
    accelerator.env.run()
    return report.to_dict(), device_state(accelerator.storengine)


def serving_state():
    session = ServingSession(
        ServingScenario(process="poisson", offered_rps=200.0,
                        duration_s=0.5, seed=7),
        PlatformConfig(system="IntraO3", input_scale=0.01))
    report = session.run()
    accelerator = session.frontend.backend.accelerator
    return report.to_dict(), device_state(accelerator.storengine)


@pytest.mark.parametrize("run", [batch_mix_state, journal_heavy_state,
                                 serving_state],
                         ids=["batch-mix", "journal-heavy", "serving"])
def test_platform_runs_match_the_polling_loop(monkeypatch, run):
    monkeypatch.setattr(accelerator_module, "Storengine", PollingStorengine)
    expected = run()
    monkeypatch.setattr(accelerator_module, "Storengine", Storengine)
    assert run() == expected

