"""Shared test helpers (imported as ``from helpers import ...``).

Kept outside ``conftest.py`` on purpose: test modules used to do
``from conftest import run_process``, which breaks when pytest collects
the repo root — ``conftest`` then resolves to whichever of
``tests/conftest.py`` / ``benchmarks/conftest.py`` got onto ``sys.path``
first.  A uniquely named helper module has no such ambiguity.
"""

from __future__ import annotations

import heapq
import json
from pathlib import Path
from typing import Any, Dict

from sys import getrefcount

from repro.serve.backends import ServingBackend
from repro.sim.engine import (
    _POOL_LIMIT,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)

#: Where the checked-in golden report fixtures live.
GOLDEN_DIR = Path(__file__).parent / "goldens"


class StubBackend(ServingBackend):
    """Fixed-service-time backend (no kernels) for front-end/cluster tests."""

    def __init__(self, env, capacity=2, service_s=0.1):
        super().__init__(env, kernel_factory=None, capacity=capacity)
        self.service_s = service_s

    def dispatch(self, record, on_complete):
        self.in_flight += 1
        self.dispatched += 1
        self.env.spawn(self._serve(record, on_complete))

    def _serve(self, record, on_complete):
        yield self.env.timeout(self.service_s)
        self.in_flight -= 1
        on_complete(record, self.env.now)


# --------------------------------------------------------------------------- #
# The one-event reference stepper                                              #
# --------------------------------------------------------------------------- #
def peek(env: Environment) -> float:
    """Time of the next scheduled event, or ``inf`` if none is pending."""
    return env._queue[0][0] if env._queue else float("inf")


def step(env: Environment) -> None:
    """Process exactly one event: the reference the engine's one dispatch
    loop (behind ``run``, ``run_until`` and ``run_events``) must match
    event for event, recycling included."""
    if not env._queue:
        raise SimulationError("no scheduled events")
    time, _seq, event = heapq.heappop(env._queue)
    if time < env._now - 1e-18:
        raise SimulationError("event scheduled in the past")
    if time > env._now:
        env._now = time
    callbacks = event.callbacks
    event.callbacks = None
    if callbacks is None:
        return
    for callback in callbacks:
        callback(event)
    if callbacks:
        _recycle(event, callbacks)
    elif not event._ok and type(event) is not Process:
        raise event._value


def _recycle(event: Event, callbacks: list) -> None:
    """Return a processed, otherwise-unreferenced event to its pool.

    The ``getrefcount == 3`` guard (the caller's local, this argument
    binding, and getrefcount's own argument) proves no simulation code
    can still observe the object, so reuse is undetectable.  The
    just-drained callbacks list is re-attached empty.
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


def kernel_instructions(kernel) -> float:
    """Total instructions of ``kernel``'s microblocks."""
    return sum(m.instructions for m in kernel.microblocks)


def serial_fraction(kernel) -> float:
    """Fraction of ``kernel``'s instructions in serial microblocks."""
    total = kernel_instructions(kernel)
    if total <= 0:
        return 0.0
    return sum(m.instructions for m in kernel.microblocks
               if m.serial) / total


def run_process(env: Environment, generator):
    """Drive ``generator`` to completion and return its value."""
    proc = env.process(generator)
    env.run()
    if not proc.ok:
        raise proc.value
    return proc.value


# --------------------------------------------------------------------------- #
# Golden-file helpers                                                          #
# --------------------------------------------------------------------------- #
def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def canonical_golden_text(payload: Dict[str, Any]) -> str:
    """The byte-exact on-disk form of a golden fixture."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def check_golden(name: str, payload: Dict[str, Any],
                 update: bool = False) -> None:
    """Compare ``payload`` against the checked-in golden ``name``.

    With ``update=True`` (wired to ``pytest --update-goldens``) the
    fixture is (re)written instead of compared — run that after an
    *intentional* simulator behavior change, then commit the diff.
    """
    path = golden_path(name)
    text = canonical_golden_text(payload)
    if update:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return
    assert path.is_file(), (
        f"missing golden fixture {path.name}; regenerate with "
        f"`python -m pytest tests/test_goldens.py --update-goldens`")
    stored = path.read_text()
    assert stored == text, (
        f"golden {path.name} drifted from the current simulator output. "
        f"If the behavior change is intentional, regenerate with "
        f"`python -m pytest tests/test_goldens.py --update-goldens` and "
        f"commit the diff.")


def assert_valid_exactly_while_mapped(flashvisor) -> None:
    """The FTL invariant: a physical group is valid exactly while a
    logical group maps to it."""
    mapping = flashvisor.mapping
    valid = set().union(*(row.valid_groups
                          for row in flashvisor.allocator.rows.values()))
    # Every valid group has an owner that still maps it ...
    for group in valid:
        owner = mapping.reverse_lookup(group)
        assert owner is not None, f"valid group {group} has no owner"
        assert mapping.lookup(owner) == group
    # ... and there are as many valid groups as mapped logical groups.
    assert len(valid) == len(mapping)
