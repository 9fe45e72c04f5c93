"""Shared test helpers (imported as ``from helpers import ...``).

Kept outside ``conftest.py`` on purpose: test modules used to do
``from conftest import run_process``, which breaks when pytest collects
the repo root — ``conftest`` then resolves to whichever of
``tests/conftest.py`` / ``benchmarks/conftest.py`` got onto ``sys.path``
first.  A uniquely named helper module has no such ambiguity.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

from repro.serve.backends import ServingBackend
from repro.sim.engine import Environment

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
