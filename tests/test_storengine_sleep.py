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

import gc
from dataclasses import astuple

import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from repro.core import (
    FlashAbacusAccelerator,
    accelerator as accelerator_module,
    run_flashabacus,
)
from repro.core.flashvisor import Flashvisor
from repro.core.storengine import Storengine
from repro.flash.backbone import FlashBackbone
from repro.flash.ftl import OutOfSpaceError
from repro.hw.interconnect import Interconnect
from repro.hw.lwp import LWPCluster
from repro.hw.memory import DDR3L, Scratchpad
from repro.hw.power import EnergyAccountant
from repro.platform import PlatformConfig
from repro.serve import ServingScenario, ServingSession
from repro.sim import Environment
from repro.workloads import heterogeneous_workload


class PollingStorengine(Storengine):
    """The reference loop: one idle check per grid tick.

    ``idle_checks`` records the instant of every check that found no
    work, so a schedule can tell whether one of its actions tied with a
    check the sleeping loop skips.
    """

    def _run(self):
        self.idle_checks = []
        while not self._stopped:
            did_work = False
            if self.flashvisor.pending_flush_bytes > 0:
                yield from self._flush_some()
                did_work = True
            if self.flashvisor.allocator.needs_gc():
                yield from self._collect_garbage()
                did_work = True
            if (self.env.now - self._last_journal) >= self.journal_interval_s:
                yield from self._journal_metadata()
                did_work = True
            if not did_work:
                self.idle_checks.append(self.env.now)
                yield self.env.timeout(self.poll_interval_s)


def device_state(storengine):
    """Everything a schedule compares between the two loops."""
    backbone = storengine.backbone
    return {
        "stats": astuple(storengine.stats),
        "bulk_bytes_written": backbone.bulk_bytes_written,
        "bytes_read": backbone.bytes_read(),
        "bytes_written": backbone.bytes_written(),
        "energy": storengine.energy.breakdown.as_dict(),
        "energy_by_component": dict(storengine.energy.by_component),
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
    cluster = LWPCluster(env, spec.lwp, energy)
    ddr = DDR3L(env, spec.memory, energy)
    scratchpad = Scratchpad(env, spec.memory, energy)
    interconnect = Interconnect(env, spec.interconnect)
    backbone = FlashBackbone(env, flash_spec, energy)
    flashvisor = Flashvisor(env, cluster.flashvisor_lwp, backbone, ddr,
                            scratchpad, interconnect.new_queue("fv"), energy)
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


# --------------------------------------------------------------------------- #
# Whole platforms: one batch mix and one short serving run                     #
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


def serving_state():
    session = ServingSession(
        ServingScenario(process="poisson", offered_rps=200.0,
                        duration_s=0.5, seed=7),
        PlatformConfig(system="IntraO3", input_scale=0.01))
    report = session.run()
    accelerator = session.frontend.backend.accelerator
    return report.to_dict(), device_state(accelerator.storengine)


@pytest.mark.parametrize("run", [batch_mix_state, serving_state],
                         ids=["batch-mix", "serving"])
def test_platform_runs_match_the_polling_loop(monkeypatch, run):
    monkeypatch.setattr(accelerator_module, "Storengine", PollingStorengine)
    expected = run()
    monkeypatch.setattr(accelerator_module, "Storengine", Storengine)
    assert run() == expected


def test_a_finished_run_is_freed_by_refcounting():
    # Flashvisor holds Storengine's wake while it runs; stop() must drop
    # it, or the whole FTL would outlive the run in a reference cycle.
    kernels = heterogeneous_workload("MX1", instances_per_kernel=1,
                                     input_scale=0.02)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        report = run_flashabacus(kernels, "IntraO3", "MX1")
        del report, kernels
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = {type(obj).__name__ for obj in gc.garbage} & {
            "BlockRowState", "Flashvisor", "Storengine"}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not leaked
