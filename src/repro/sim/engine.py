"""Discrete-event simulation engine.

This module is a small, dependency-free discrete-event simulator in the
spirit of SimPy.  Processes are Python generators that ``yield`` events
(timeouts, other events, or composite events); the :class:`Environment`
owns the virtual clock and the pending-event heap and advances time by
popping the earliest scheduled event.

The engine is the substrate for every timed model in this repository:
LWPs, memories, crossbars, the flash backbone, the host storage stack of
the baseline, and the FlashAbacus schedulers all run as processes on a
single :class:`Environment`.

Performance notes (see PERFORMANCE.md for the full hot-path map)
----------------------------------------------------------------
Every simulated activity flows through this module, so its per-event
constant factor bounds the wall-clock speed of the entire repository.
The implementation trades a little prettiness for speed on the hot
paths while keeping the public API and the exact event ordering (and
therefore byte-identical simulation results) stable:

* Heap entries are ``(time, seq, event)`` triples where ``seq`` folds
  the scheduling priority into the high bits of a monotonically
  increasing sequence number — one comparison key and one tuple slot
  fewer than the classic ``(time, priority, eid, event)`` layout, with
  the identical ordering.
* ``Environment.timeout`` / ``event`` build objects with ``__new__`` +
  direct slot writes and push heap entries inline instead of chaining
  constructor calls, and recycle processed, unreferenced
  :class:`Timeout`/:class:`Event` objects through small free lists
  guarded by ``sys.getrefcount``.
* ``Environment.timeout_at`` schedules an absolute instant.  A FIFO
  server that knows when a transfer ends (``BandwidthPipe``) waits with
  one timeout at exactly that instant instead of a grant event plus a
  relative timeout.
* :meth:`Environment.run`, :meth:`Environment.run_until` and
  :meth:`Environment.run_events` are thin wrappers over one inlined
  dispatch loop (no per-event ``step()``/``peek()`` calls).  The loop
  is *flat*: an event with no callbacks ends its iteration with
  ``continue``, and the dispatch is not nested under a callbacks test.  That shape matters:
  on the timeout workload, a ``run_until`` whose dispatch sat inside
  ``if callbacks is not None:`` ran about 366k events/s against about
  570k for the flat loop with the same predicate and watchdog.
  :meth:`Environment.step` stays as the one-event reference stepper.
* :meth:`Process._resume` is entered through a bound method cached at
  process creation (no per-wait method-object allocation), stores
  nothing per resume, and resumes synchronously over already-processed
  events instead of scheduling "immediate" bounce events.
* Crashes are pushed, not polled: :meth:`Environment.spawn` starts a
  process whose failure re-raises out of whichever loop processes it,
  so drivers run :meth:`Environment.run_until` (a stop check per event
  in the one loop) instead of stepping and scanning processes.

Example
-------
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 3.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (3.0, 'a')]
"""

from __future__ import annotations

import heapq
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, List, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


# Event priorities: control ordering of events scheduled at the same time.
URGENT = 0
NORMAL = 1
LOW = 2

#: Priorities occupy the bits above the per-environment sequence number
#: in a heap entry's ``seq`` key, so ``(time, seq)`` sorts exactly like
#: ``(time, priority, eid)`` as long as fewer than 2**52 events are ever
#: scheduled on one environment (an unreachable count in practice).
_PRIORITY_SHIFT = 52
_SEQ_NORMAL = NORMAL << _PRIORITY_SHIFT

#: Upper bounds on the free lists.  Steady-state simulations rarely keep
#: more than a few hundred timeouts/events pending at once; the caps keep
#: a pathological burst from pinning memory.
_POOL_LIMIT = 512

_INF = float("inf")


class Event:
    """A one-shot occurrence in virtual time.

    Events start *pending*, may be *triggered* (scheduled for processing
    with a value), and become *processed* once their callbacks have run.
    Processes waiting on an event are resumed with the event's value when
    it is processed.
    """

    # Every simulated activity allocates events, so they are the hottest
    # allocation site of the whole engine; __slots__ drops the per-event
    # dict.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once the event has been scheduled for processing."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have run and waiters were resumed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``False`` if the event carries a failure (exception) value."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        self._triggered = True
        self._value = value
        env = self.env
        eid = env._eid = env._eid + 1
        _heappush(env._queue,
                  (env._now, (priority << _PRIORITY_SHIFT) | eid, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception, which propagates to waiters."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        env = self.env
        eid = env._eid = env._eid + 1
        _heappush(env._queue,
                  (env._now, (priority << _PRIORITY_SHIFT) | eid, self))
        return self


class Timeout(Event):
    """An event that triggers at a scheduled instant.

    Made only by :meth:`Environment.timeout` and
    :meth:`Environment.timeout_at`, which recycle processed timeouts
    through a free list.
    """

    __slots__ = ()


class Process(Event):
    """Wraps a generator and drives it by processing the events it yields.

    A process is itself an event: it triggers when the generator returns
    (with the generator's return value) or raises.
    """

    # ``_resume_cb``/``_send`` cache bound methods: every wait registers
    # ``_resume`` as a callback and every resume calls ``send``, and
    # creating the method objects anew on each yield is measurable on
    # the hot path.
    __slots__ = ("_generator", "_resume_cb", "_send")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise TypeError("process requires a generator")
        super().__init__(env)
        self._generator = generator
        self._resume_cb = self._resume
        self._send = generator.send
        # Bootstrap: resume the process immediately (at the current time).
        init = env.event()
        init._triggered = True
        init.callbacks.append(self._resume_cb)
        eid = env._eid = env._eid + 1
        _heappush(env._queue, (env._now, eid, init))   # URGENT priority

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not finished."""
        return not self._triggered

    def _resume(self, event: Event) -> None:
        # The timeout-wait-resume cycle runs through here once per event;
        # the send is aliased to a local, and the generator is driven
        # synchronously across already-processed events (no bounce
        # event).
        send = self._send
        while True:
            try:
                if event._ok:
                    result = send(event._value)
                else:
                    result = self._generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value, priority=URGENT)
                return
            except BaseException as exc:
                self.fail(exc, priority=URGENT)
                return

            try:
                callbacks = result.callbacks
            except AttributeError:
                # Yielding something that is not an event is a programming
                # error in the process; fail the process rather than
                # crashing the whole simulation loop.
                self.fail(SimulationError(
                    f"process yielded a non-event: {result!r}"),
                    priority=URGENT)
                return
            if callbacks is not None:
                callbacks.append(self._resume_cb)
                return
            # The yielded event was already processed: resume synchronously
            # with its value instead of allocating and scheduling an extra
            # "immediate" bounce event — this loop is the hottest path of
            # every simulation.
            event = result


def _raise_failure(process: Process) -> None:
    """Callback of spawned processes: re-raise a crash out of the loop."""
    if not process._ok:
        raise process._value


class AllOf(Event):
    """Triggers once every sub-event has triggered (or one has failed)."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._count += 1
        if self._count >= len(self.events):
            self.succeed({e: e.value for e in self.events if e.triggered})


class Environment:
    """Owns the virtual clock and the pending event queue."""

    # The clock and the sequence counter are written once or twice per
    # event; __slots__ keeps those accesses on the fast path (and events
    # hold a reference each, so the per-object dict would be pure
    # overhead).  ``tracer`` is the observability attach point
    # (repro.obs): None by default, and instrumented call sites guard on
    # that, so an untraced run pays one attribute load per site and
    # nothing else.
    __slots__ = ("_now", "_queue", "_eid", "_timeout_pool", "_event_pool",
                 "tracer")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List = []
        self._eid = 0
        self._timeout_pool: List[Timeout] = []
        self._event_pool: List[Event] = []
        self.tracer = None

    @property
    def now(self) -> float:
        """Current simulation time (seconds, by convention of this repo)."""
        return self._now

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event.

        Recycles processed, unreferenced events from a free list; the
        returned object is indistinguishable from a fresh one.
        """
        try:
            event = self._event_pool.pop()
        except IndexError:
            event = Event.__new__(Event)
            event.env = self
            event.callbacks = []
        event._value = None
        event._ok = True
        event._triggered = False
        return event

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        try:
            # Recycled timeouts already have ``_ok=True``/``_triggered=
            # True`` (a timeout is born triggered and can never fail) and
            # an empty callbacks list, so only the value needs to be
            # written.
            timeout = self._timeout_pool.pop()
        except IndexError:
            timeout = Timeout.__new__(Timeout)
            timeout.env = self
            timeout.callbacks = []
            timeout._ok = True
            timeout._triggered = True
        timeout._value = value
        eid = self._eid = self._eid + 1
        _heappush(self._queue,
                  (self._now + delay, _SEQ_NORMAL | eid, timeout))
        return timeout

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Create an event that triggers at the absolute instant ``when``.

        The heap key is ``when`` itself: a caller that computed an end
        instant would otherwise pass ``when - now``, and ``now + (when -
        now)`` can differ from ``when`` in the last bit.
        """
        now = self._now
        if when < now:
            raise ValueError(f"instant {when!r} is before now ({now!r})")
        try:
            timeout = self._timeout_pool.pop()
        except IndexError:
            timeout = Timeout.__new__(Timeout)
            timeout.env = self
            timeout.callbacks = []
            timeout._ok = True
            timeout._triggered = True
        timeout._value = value
        eid = self._eid = self._eid + 1
        _heappush(self._queue, (when, _SEQ_NORMAL | eid, timeout))
        return timeout

    def process(self, generator: Generator) -> Process:
        """Register ``generator`` as a new process starting now."""
        return Process(self, generator)

    def spawn(self, generator: Generator) -> Process:
        """Start ``generator`` as a process whose crash aborts the run.

        The push-based crash contract: the process carries a callback
        that re-raises its exception when its failure is processed, so
        the original exception propagates out of whichever engine loop
        (:meth:`run`, :meth:`run_until`, :meth:`run_events`,
        :meth:`step`) is driving the simulation.  Nobody has to poll
        the process for health.  Backends, service loops and workers
        start their processes here.
        """
        process = Process(self, generator)
        process.callbacks.append(_raise_failure)
        return process

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all ``events`` have triggered."""
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none is pending."""
        return self._queue[0][0] if self._queue else _INF

    def cancel(self, event: Event) -> bool:
        """Remove one scheduled ``event`` from the pending queue.

        Returns ``True`` if the event was found (its waiters will never
        be resumed), ``False`` if it was not scheduled.  A popped-but-
        never-fired event does not advance the clock, which is the
        point: the observability sampler de-schedules its re-arm
        timeout on shutdown so the session's post-run drain ends at the
        real makespan instead of the next cadence tick.  O(queue) — for
        shutdown paths, not the hot loop.
        """
        queue = self._queue
        for index, entry in enumerate(queue):
            if entry[2] is event:
                del queue[index]
                heapq.heapify(queue)
                return True
        return False

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        time, _seq, event = _heappop(self._queue)
        if time < self._now - 1e-18:
            raise SimulationError("event scheduled in the past")
        if time > self._now:
            self._now = time
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks is None:
            return
        for callback in callbacks:
            callback(event)
        if callbacks:
            self._recycle(event, callbacks)
        elif not event._ok and type(event) is not Process:
            raise event._value

    def _recycle(self, event: Event, callbacks: List) -> None:
        """Return a processed, otherwise-unreferenced event to its pool.

        The ``getrefcount == 3`` guard (the caller's local, our argument
        binding, and getrefcount's own argument) proves no simulation
        code can still observe the object, so reuse is undetectable.  The
        just-drained callbacks list is re-attached empty, saving the list
        allocation on the next creation.
        """
        cls = type(event)
        if cls is Timeout:
            pool = event.env._timeout_pool
        elif cls is Event:
            pool = event.env._event_pool
        else:
            return
        if len(pool) < _POOL_LIMIT and getrefcount(event) == 3:
            callbacks.clear()
            event.callbacks = callbacks
            pool.append(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        Processes events in exactly the same order as repeated
        :meth:`step` calls; with ``until`` the clock then jumps to it.
        """
        if until is None:
            self._loop(_INF, None, None, _INF)
            return
        if until < self._now:
            raise ValueError("cannot run backwards in time")
        self._loop(until, None, None, _INF)
        self._now = until

    def run_until(self, done: Callable[[], bool],
                  progress: Optional[Callable[[], Any]] = None,
                  stall_s: float = _INF) -> str:
        """Process events until ``done()`` holds; returns why it stopped.

        ``done`` is checked before the first event and after every
        event, so the loop stops on exactly the event a
        ``while not done(): step()`` loop would stop on.  Returns
        ``"done"``; ``"drained"`` if the queue empties first; or
        ``"stalled"`` if the watchdog trips — ``progress()`` returned
        the same value across more than ``stall_s`` simulated seconds.
        The watchdog samples ``progress`` only once its deadline has
        passed (not per event), so a wedged run trips within
        ``2 * stall_s`` of its last progress.  Crashes of spawned
        processes propagate as exceptions (see :meth:`spawn`).
        """
        return self._loop(_INF, done, progress, stall_s)

    def run_events(self, until: float) -> None:
        """Process every event with ``time <= until``; keep the clock put.

        Same bounded loop as :meth:`run`, minus the final jump of the
        clock to ``until`` — after the last qualifying event the clock
        reads that event's time.  The epoch-parallel cluster runner uses
        this at epoch boundaries so a shard that goes idle before the
        boundary keeps the same clock reading the serial session would
        have (the serial drain stops at the last settlement event), which
        is what makes the two makespans byte-identical.
        """
        self._loop(until, None, None, _INF)

    def _loop(self, until: float, done: Optional[Callable[[], bool]],
              progress: Optional[Callable[[], Any]], stall_s: float) -> str:
        """The one dispatch loop behind :meth:`run`, :meth:`run_until`
        and :meth:`run_events`.

        Processes events in :meth:`step` order until the next one lies
        past ``until`` (returns ``"until"``) or the queue drains
        (``"drained"``).  With a ``done`` predicate, ``done()`` and the
        watchdog run at the top of every iteration: before the first
        event and after every event, including events that ran no
        callback.  The body is inlined (no per-event :meth:`step` or
        :meth:`peek` call) and flat: an event with no callbacks
        ``continue``s, and the dispatch is not nested under a callbacks
        test.  Measured on the timeout workload, the nested shape ran
        about 40 % fewer events per second.
        """
        queue = self._queue
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        pop = _heappop
        refcount = getrefcount
        if progress is not None:
            last = progress()
            deadline = self._now + stall_s
        else:
            deadline = _INF
        while True:
            if done is not None:
                if done():
                    return "done"
                if self._now > deadline:
                    now_progress = progress()
                    if now_progress == last:
                        return "stalled"
                    last = now_progress
                    deadline = self._now + stall_s
            if not queue:
                return "drained"
            if queue[0][0] > until:
                return "until"
            time, _seq, event = pop(queue)
            # Unconditional store: the heap pops in non-decreasing time
            # order and nothing in this repository schedules into the
            # past, so clamping (``max``) would only hide a real bug.
            self._now = time
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks is None:
                continue
            try:
                # The overwhelmingly common case: exactly one waiter (a
                # process resume).  Single-element unpack dispatches it
                # without the iterator protocol or a len() call; any
                # other arity falls to the general loop.
                [callback] = callbacks
            except ValueError:
                for callback in callbacks:
                    callback(event)
                if not callbacks:
                    if not event._ok and type(event) is not Process:
                        raise event._value
                    continue
            else:
                callback(event)
            # Inline recycling (same guard as _recycle): refcount 2 =
            # the local binding + getrefcount's argument, so nothing
            # else can still observe the reused object.
            cls = event.__class__
            if cls is Timeout:
                if (len(timeout_pool) < _POOL_LIMIT
                        and refcount(event) == 2 and event.env is self):
                    callbacks.clear()
                    event.callbacks = callbacks
                    timeout_pool.append(event)
            elif cls is Event:
                if (len(event_pool) < _POOL_LIMIT
                        and refcount(event) == 2 and event.env is self):
                    callbacks.clear()
                    event.callbacks = callbacks
                    event_pool.append(event)
