"""Self-test of ``tools/check_unreferenced.py`` on planted repositories."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_unreferenced.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("check_unreferenced", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def plant(root: Path, files) -> None:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def check(root: Path, files) -> int:
    """Exit code of the check on a repository holding ``files`` plus one
    definition an example uses."""
    plant(root, {
        "src/repro/mod.py": "def live():\n    return 1\n",
        "examples/use.py": "from repro.mod import live\nlive()\n",
        **files,
    })
    return load_tool().main([], root=root)


def test_outside_tests_reports_a_helper_only_tests_name(tmp_path, capsys):
    assert check(tmp_path, {
        "src/repro/helper.py": "def test_only_helper():\n    return 2\n",
        "tests/test_mod.py": (
            "from repro.helper import test_only_helper\n"
            "def test_it():\n    assert test_only_helper() == 2\n"),
    }) == 1
    assert "src/repro/helper.py:1: test_only_helper" in capsys.readouterr().out


def test_a_package_reexport_is_not_a_use(tmp_path, capsys):
    assert check(tmp_path, {
        "src/repro/__init__.py": (
            "from .helper import exported\n__all__ = ['exported']\n"),
        "src/repro/helper.py": "def exported():\n    return 2\n",
    }) == 1
    assert "src/repro/helper.py:1: exported" in capsys.readouterr().out


def test_a_registered_policy_is_used(tmp_path):
    assert check(tmp_path, {
        "src/repro/policies.py": (
            "from .registry import register_policy\n"
            "@register_policy('dispatch')\n"
            "class ByNameOnly:\n    pass\n"),
    }) == 0


def test_a_local_variable_is_not_a_use_of_a_method(tmp_path, capsys):
    assert check(tmp_path, {
        "src/repro/table.py": (
            "class Table:\n"
            "    def invalidate(self):\n        return 1\n"
            "    def busy(self):\n        return 2\n"
            "    def nested(self):\n"
            "        def helper():\n            return 3\n"
            "        return helper()\n"
            "    def counter(self):\n        return 4\n"
            "def shadow(busy, counter):\n"
            "    invalidate = busy\n"
            "    def closure():\n        return counter\n"
            "    return invalidate, closure()\n"),
        "examples/table.py": (
            "from repro.table import Table, shadow\n"
            "shadow(Table().nested(), 0)\n"),
    }) == 1
    out = capsys.readouterr().out
    # The local and the parameters are bound in the function that reads
    # them or in one enclosing it; the nested defs are called, which is
    # a use.
    assert "src/repro/table.py:2: invalidate" in out
    assert "src/repro/table.py:4: busy" in out
    assert "src/repro/table.py:10: counter" in out
    assert "helper" not in out and "closure" not in out


def test_a_name_used_only_by_an_example_is_used(tmp_path, capsys):
    assert check(tmp_path, {}) == 0
    assert "every function" in capsys.readouterr().out


COUNTER = (
    "class Counter:\n"
    "    def __init__(self):\n"
    "        self.hits = 0\n"
    "        self.limit = 3\n"
    "    def bump(self):\n"
    "        self.hits += 1\n"
    "        return self.limit\n")
BUMP = "from repro.counter import Counter\nCounter().bump()\n"


def test_a_write_only_attribute_is_reported_at_its_first_store(
        tmp_path, capsys):
    assert check(tmp_path, {"src/repro/counter.py": COUNTER,
                            "examples/bump.py": BUMP}) == 1
    # ``limit`` is loaded; ``hits`` is stored twice and read by nothing.
    assert capsys.readouterr().out.splitlines() \
        == ["src/repro/counter.py:3: .hits"]


def test_an_attribute_only_tests_read_is_reported(tmp_path, capsys):
    assert check(tmp_path, {
        "src/repro/counter.py": COUNTER,
        "examples/bump.py": BUMP,
        "tests/test_counter.py": (
            "from repro.counter import Counter\n"
            "def test_bump():\n"
            "    counter = Counter()\n    counter.bump()\n"
            "    assert counter.hits == 1\n"),
    }) == 1
    assert "src/repro/counter.py:3: .hits" in capsys.readouterr().out


def test_getattr_over_a_literal_tuple_is_a_read(tmp_path):
    assert check(tmp_path, {
        "src/repro/counter.py": COUNTER,
        "examples/bump.py": (
            BUMP + "counter = Counter()\n"
            "print({name: getattr(counter, name) for name in ('hits',)})\n"),
    }) == 0


def test_a_slots_entry_is_not_a_read(tmp_path, capsys):
    assert check(tmp_path, {
        "src/repro/counter.py": (
            "class Counter:\n"
            "    __slots__ = ('hits',)\n"
            "    def __init__(self):\n"
            "        self.hits = 0\n"),
        "examples/bump.py": "from repro.counter import Counter\nCounter()\n",
    }) == 1
    assert "src/repro/counter.py:4: .hits" in capsys.readouterr().out


def test_an_exception_class_may_set_unread_details_on_self(tmp_path, capsys):
    assert check(tmp_path, {
        # Scanned before the module defining its base.
        "src/repro/denied.py": (
            "from .errors import Refused\n"
            "class Denied(Refused):\n"
            "    def __init__(self, who):\n"
            "        super().__init__('denied')\n"
            "        self.who = who\n"
            "        who.blamed = True\n"),
        "src/repro/errors.py": (
            "class Refused(ValueError):\n"
            "    def __init__(self, why):\n"
            "        super().__init__(why)\n"
            "        self.why = why\n"),
        "examples/errors.py": (
            "from repro.denied import Denied\nprint(Denied)\n"),
    }) == 1
    # Subclasses of a built-in exception, directly or not, are exempt on
    # ``self``; a store on another object is not.
    assert capsys.readouterr().out.splitlines() \
        == ["src/repro/denied.py:6: .blamed"]


def test_the_check_has_one_mode():
    with pytest.raises(SystemExit) as raised:
        load_tool().main(["--outside-tests"])
    assert raised.value.code == 2
