"""Unit tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Environment, SimulationError

from helpers import cyclic_garbage, peek, step


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_starts_at_initial_time():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(2.5)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [2.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_processes_interleave_in_time_order():
    env = Environment()
    log = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(proc(env, "slow", 3.0))
    env.process(proc(env, "fast", 1.0))
    env.run()
    assert log == [(1.0, "fast"), (3.0, "slow")]


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc(env):
        for _ in range(3):
            yield env.timeout(1.0)
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [1.0, 2.0, 3.0]


def test_run_until_stops_before_future_events():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(10.0)
        seen.append(env.now)

    env.process(proc(env))
    env.run(until=5.0)
    assert seen == []
    assert env.now == 5.0
    env.run()
    assert seen == [10.0]


def test_run_backwards_rejected():
    env = Environment()
    env.process(iter([]).__iter__) if False else None
    env._now = 4.0
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_event_succeed_resumes_waiter_with_value():
    env = Environment()
    received = []
    gate = env.event()

    def waiter(env):
        value = yield gate
        received.append(value)

    def trigger(env):
        yield env.timeout(1.0)
        gate.succeed("payload")

    env.process(waiter(env))
    env.process(trigger(env))
    env.run()
    assert received == ["payload"]


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    caught = []
    gate = env.event()

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger(env):
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    env.process(waiter(env))
    env.process(trigger(env))
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    env = Environment()
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_process_return_value_becomes_event_value():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        return 42

    def parent(env, results):
        value = yield env.process(child(env))
        results.append(value)

    results = []
    env.process(parent(env, results))
    env.run()
    assert results == [42]


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad(env):
        yield 42

    proc = env.process(bad(env))
    env.run()
    assert not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_step_without_events_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        step(env)


def test_peek_reports_next_event_time():
    env = Environment()
    assert peek(env) == float("inf")
    env.timeout(7.0)
    assert peek(env) == 7.0


def test_waiting_on_already_processed_event_resumes_immediately():
    env = Environment()
    gate = env.event()
    gate.succeed("early")
    received = []

    def late_waiter(env):
        yield env.timeout(5.0)
        value = yield gate
        received.append((env.now, value))

    env.process(late_waiter(env))
    env.run()
    assert received == [(5.0, "early")]


# --------------------------------------------------------------------------- #
# Push-based crash surfacing: spawn + run_until                                #
# --------------------------------------------------------------------------- #
class Crash(Exception):
    pass


def _crasher(env, delay):
    yield env.timeout(delay)
    raise Crash(f"at {delay}")


@pytest.mark.parametrize("drive", [
    lambda env: env.run(),
    lambda env: env.run(until=10.0),
    lambda env: env.run_events(10.0),
    lambda env: env.run_until(lambda: False),
    lambda env: [step(env) for _ in range(10)],
])
def test_spawned_crash_propagates_out_of_every_loop(drive):
    env = Environment()
    env.spawn(_crasher(env, 2.0))
    with pytest.raises(Crash, match="at 2.0"):
        drive(env)
    assert env.now == 2.0


def test_plain_process_crash_stays_on_the_process():
    env = Environment()
    proc = env.process(_crasher(env, 2.0))
    env.run()
    assert not proc.ok
    assert isinstance(proc.value, Crash)


def test_spawned_process_that_succeeds_keeps_its_value():
    env = Environment()

    def worker(env):
        yield env.timeout(1.0)
        return "ok"

    proc = env.spawn(worker(env))
    env.run()
    assert proc.ok and proc.value == "ok"


def test_run_until_stops_on_the_same_event_as_a_step_loop():
    def build():
        env = Environment()
        log = []

        def ticker(env, name, period):
            while True:
                yield env.timeout(period)
                log.append((env.now, name))

        env.process(ticker(env, "a", 0.3))
        env.process(ticker(env, "b", 0.7))
        return env, log

    stepped, step_log = build()
    while len(step_log) < 25:
        step(stepped)
    ran, run_log = build()
    assert ran.run_until(lambda: len(run_log) >= 25) == "done"
    assert run_log == step_log
    assert ran.now == stepped.now
    assert peek(ran) == peek(stepped)


def test_run_until_checks_before_the_first_event():
    env = Environment()
    env.timeout(1.0)
    assert env.run_until(lambda: True) == "done"
    assert env.now == 0.0 and peek(env) == 1.0


def test_run_until_reports_a_drained_queue():
    env = Environment()
    env.timeout(1.0)
    assert env.run_until(lambda: False) == "drained"
    assert env.now == 1.0


def test_run_until_watchdog_trips_without_progress():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    counter = [0]
    outcome = env.run_until(lambda: False, progress=lambda: counter[0],
                            stall_s=10.0)
    assert outcome == "stalled"
    assert 10.0 < env.now <= 21.0


def test_run_until_watchdog_rearms_on_progress():
    env = Environment()
    progress = [0]

    def worker(env):
        while True:
            yield env.timeout(4.0)
            progress[0] += 1

    env.process(worker(env))
    outcome = env.run_until(lambda: progress[0] >= 30,
                            progress=lambda: progress[0], stall_s=5.0)
    assert outcome == "done"
    assert env.now == 120.0


# --------------------------------------------------------------------------- #
# timeout_at: absolute instants                                                #
# --------------------------------------------------------------------------- #
def test_timeout_at_fires_at_exactly_the_instant():
    # 0.2 + (0.9 - 0.2) != 0.9 in binary floating point: a relative
    # timeout would land one ulp off the instant the caller computed.
    assert 0.2 + (0.9 - 0.2) != 0.9
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(0.2)
        value = yield env.timeout_at(0.9, value="end")
        seen.append((env.now, value))
        yield env.timeout_at(env.now)       # "now" is not in the past
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [(0.9, "end"), 0.9]


def test_timeout_at_rejects_a_past_instant():
    env = Environment()
    env.run(until=2.0)
    with pytest.raises(ValueError):
        env.timeout_at(1.5)
    with pytest.raises(ValueError):
        env.timeout_at(2.0 - 1e-12)


def test_timeout_at_reuses_pooled_timeouts():
    env = Environment()
    # Nothing but the heap and a waiter's callback list holds a timeout,
    # so both waited-on timeouts return to the free list once processed.
    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(0.5)

    env.process(proc(env))
    env.run()
    assert len(env._timeout_pool) == 2
    pooled = env._timeout_pool[-1]
    timeout = env.timeout_at(3.0, value=7)
    assert timeout is pooled
    assert len(env._timeout_pool) == 1
    assert (peek(env), timeout.value) == (3.0, 7)
    del timeout, pooled

    fired = []

    def waiter(env):
        yield env.timeout_at(4.0)
        fired.append(env.now)
        yield env.timeout_at(5.0)
        fired.append(env.now)

    env.process(waiter(env))
    env.run()
    assert fired == [4.0, 5.0]
    # Both waited-on timeouts went back to the pool; the one at 3.0 had
    # no waiter, and only waited-on events are recycled.
    assert len(env._timeout_pool) == 2
    reused = env._timeout_pool[-1]
    assert env.timeout_at(6.0) is reused
    assert peek(env) == 6.0


# --------------------------------------------------------------------------- #
# reschedule: moving a pending timeout                                         #
# --------------------------------------------------------------------------- #
def test_reschedule_moves_a_pending_timeout_and_keeps_its_waiter():
    env = Environment()
    log = []
    sleep = env.timeout_at(5.0, value="woken")

    def sleeper(env):
        value = yield sleep
        log.append((env.now, value))

    def waker(env):
        yield env.timeout(1.0)
        env.reschedule(sleep, 2.0)

    env.process(sleeper(env))
    env.process(waker(env))
    env.run()
    # Resumed once, at the new instant: the old heap entry is gone.
    assert log == [(2.0, "woken")]
    assert env.now == 2.0


def test_reschedule_sorts_after_events_already_at_the_instant():
    # A fresh sequence number: among events at the new instant the
    # moved timeout runs as if timeout_at had created it at the re-key.
    env = Environment()
    order = []
    sleep = env.timeout_at(9.0)

    def sleeper(env):
        yield sleep
        order.append("sleeper")

    def other(env):
        yield env.timeout_at(3.0)
        order.append("other")

    def waker(env):
        yield env.timeout(1.0)
        env.reschedule(sleep, 3.0)

    env.process(sleeper(env))
    env.process(other(env))
    env.process(waker(env))
    env.run()
    assert order == ["other", "sleeper"]


def test_reschedule_rejects_a_past_instant_and_an_unscheduled_timeout():
    env = Environment()
    pending = env.timeout_at(4.0)
    env.run(until=2.0)
    with pytest.raises(ValueError):
        env.reschedule(pending, 1.0)
    env.run()
    # Processed: no longer in the queue.
    with pytest.raises(SimulationError):
        env.reschedule(pending, 5.0)


# --------------------------------------------------------------------------- #
# Teardown: no reference cycles once a run is over                             #
# --------------------------------------------------------------------------- #
def test_a_finished_process_drops_what_refers_back_to_it():
    env = Environment()

    def returns(env):
        yield env.timeout(1.0)
        return "done"

    def raises(env):
        yield env.timeout(2.0)
        raise KeyError("boom")

    finished = env.process(returns(env))
    crashed = env.process(raises(env))
    assert list(env._processes) == [finished, crashed]
    env.run()
    for process in (finished, crashed):
        assert not process.is_alive
        assert process._resume_cb is None and process._send is None
    assert not env._processes
    assert finished.value == "done"
    assert isinstance(crashed.value, KeyError)


def test_close_ends_parked_processes_and_frees_the_run():
    log = []

    def parked(env, gate):
        try:
            yield gate
        finally:
            log.append(("closed", env.now))

    def sleeper(env):
        yield env.timeout(100.0)
        log.append("woke")

    def bad(env):
        yield "not an event"

    def run():
        env = Environment()
        gate = env.event()
        processes = [env.process(parked(env, gate)),
                     env.process(sleeper(env)), env.process(bad(env))]
        env.run(until=3.0)
        assert len(env._processes) == 3
        env.close()
        assert log == [("closed", 3.0)]
        assert env.now == 3.0
        assert not env._processes and not env._queue
        assert not env._timeout_pool and not env._event_pool
        assert all(p._resume_cb is None for p in processes)
        env.close()                      # a second close does nothing
        env.run()
        assert log == [("closed", 3.0)] and env.now == 3.0

    assert not cyclic_garbage(run)


# --------------------------------------------------------------------------- #
# One loop: every entry point against the step() reference                     #
# --------------------------------------------------------------------------- #
INF = float("inf")
N_GATES = 3


class Boom(Exception):
    """Carried by failed gates."""


#: Quarter-second multiples are exact in binary floating point, so
#: generated horizons often land exactly on event instants.
QUARTERS = st.integers(0, 8).map(lambda q: q / 4)
GATE = st.integers(0, N_GATES - 1)
OPS = st.one_of(
    st.tuples(st.just("timeout"), QUARTERS),
    st.tuples(st.just("timeout_at"), QUARTERS),
    st.tuples(st.just("wait"), GATE),
    st.tuples(st.just("succeed"), GATE),
    st.tuples(st.just("fail"), GATE),
    st.tuples(st.just("reyield")),
)
#: (crash, ops): ``crash`` is None, "plain" (a failed env.process, which
#: stays on the process) or "spawn" (a crash that aborts the run).
PROCESS = st.tuples(st.sampled_from([None, None, "plain", "spawn"]),
                    st.lists(OPS, min_size=1, max_size=6))
PROGRAMS = st.lists(PROCESS, min_size=1, max_size=5)
HORIZONS = st.lists(st.integers(0, 40).map(lambda q: q / 4),
                    max_size=5).map(sorted)
COUNTS = st.lists(st.integers(0, 15), max_size=5).map(sorted)


def build_program(program):
    """Start ``program``'s processes on a fresh environment.

    Gates are shared events: a gate may get 0, 1 or 2+ waiters, may be
    waited on after it was processed, and may fail with nobody waiting
    (which aborts the run).  ``last`` keeps each process's previous
    event alive, so pooled objects are exercised next to held ones.
    """
    env = Environment()
    log = []
    gates = [env.event() for _ in range(N_GATES)]

    def proc(name, ops, crash):
        last = env.timeout(0.0)          # an event nobody waits on
        for op, *args in ops:
            value = None
            if op == "timeout":
                last = env.timeout(args[0], value=name)
                value = yield last
            elif op == "timeout_at":
                last = env.timeout_at(env.now + args[0], value=name)
                value = yield last
            elif op == "wait":
                last = gates[args[0]]
                try:
                    value = yield last
                except Boom as exc:
                    value = ("caught", str(exc))
            elif op == "reyield":
                try:
                    value = yield last
                except Boom as exc:
                    value = ("caught again", str(exc))
            elif not gates[args[0]].triggered:
                if op == "succeed":
                    gates[args[0]].succeed((name, env.now))
                else:
                    gates[args[0]].fail(Boom(f"{name} at {env.now}"))
            log.append((env.now, name, op, value))
        if crash:
            raise Crash(f"{name} at {env.now}")

    for index, (crash, ops) in enumerate(program):
        start = env.spawn if crash == "spawn" else env.process
        start(proc(f"p{index}", ops, crash))
    return env, log


def drive(program, driver):
    """Run ``program`` under ``driver``; everything a reader can see."""
    env, log = build_program(program)
    checkpoints = []
    now = None
    try:
        now = driver(env, log, checkpoints)
        error = None
    except (Boom, Crash) as exc:
        error = (type(exc).__name__, str(exc))
    return {"log": log, "checkpoints": checkpoints, "error": error,
            "now": env.now if now is None else now, "eid": env._eid,
            "peek": peek(env)}


def snapshot(env, log, now=None):
    return (len(log), env.now if now is None else now, peek(env),
            env._eid)


def step_all(env, log, checkpoints):
    while peek(env) != INF:
        step(env)


def step_through(env, horizon):
    """Reference for one bounded chunk: step every event <= horizon."""
    while peek(env) <= horizon:
        step(env)


def step_until(env, done):
    """Reference for run_until: ``while not done(): step()``."""
    while not done():
        if peek(env) == INF:
            return "drained"
        step(env)
    return "done"


def run_all(env, log, checkpoints):
    env.run()


def run_chunks(horizons):
    def driver(env, log, checkpoints):
        for horizon in horizons:
            env.run(until=horizon)
            checkpoints.append(snapshot(env, log))
        env.run()
    return driver


def step_run_chunks(horizons):
    """run(until) reference: step the chunk, then the clock jumps."""
    def driver(env, log, checkpoints):
        floor = env.now
        for horizon in horizons:
            step_through(env, horizon)
            floor = max(floor, horizon)
            checkpoints.append(snapshot(env, log, now=floor))
        step_all(env, log, checkpoints)
        return max(env.now, floor)
    return driver


def run_event_chunks(horizons):
    def driver(env, log, checkpoints):
        for horizon in horizons:
            env.run_events(horizon)
            checkpoints.append(snapshot(env, log))
        env.run()
    return driver


def step_event_chunks(horizons):
    def driver(env, log, checkpoints):
        for horizon in horizons:
            step_through(env, horizon)
            checkpoints.append(snapshot(env, log))
        step_all(env, log, checkpoints)
    return driver


def run_until_counts(counts):
    def driver(env, log, checkpoints):
        for count in counts:
            outcome = env.run_until(lambda: len(log) >= count,
                                    progress=lambda: len(log),
                                    stall_s=1e9)
            checkpoints.append((outcome,) + snapshot(env, log))
        checkpoints.append((env.run_until(lambda: False),)
                           + snapshot(env, log))
    return driver


def step_until_counts(counts):
    def driver(env, log, checkpoints):
        for count in counts:
            outcome = step_until(env, lambda: len(log) >= count)
            checkpoints.append((outcome,) + snapshot(env, log))
        checkpoints.append((step_until(env, lambda: False),)
                           + snapshot(env, log))
    return driver


@settings(max_examples=150, deadline=None)
@given(program=PROGRAMS, horizons=HORIZONS, counts=COUNTS)
def test_every_loop_entry_point_matches_the_step_reference(
        program, horizons, counts):
    reference = drive(program, step_all)
    pairs = [
        (run_all, step_all),
        (run_chunks(horizons), step_run_chunks(horizons)),
        (run_event_chunks(horizons), step_event_chunks(horizons)),
        (run_until_counts(counts), step_until_counts(counts)),
    ]
    for fast, slow in pairs:
        ran = drive(program, fast)
        # Same events, same order, same failures as plain stepping ...
        for key in ("log", "error", "eid", "peek"):
            assert ran[key] == reference[key], key
        # ... and the same state at every stop as the entry point's
        # step()-built reference (clock contract included).
        assert ran == drive(program, slow)
