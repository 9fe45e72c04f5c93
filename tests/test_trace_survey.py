"""Self-test of ``tools/trace_survey.py`` on a planted package."""

import importlib.util
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trace_survey.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("trace_survey", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODULE = '''\
import functools


def used():
    return 1


def never():
    return 2


def child_only():
    return 3


@functools.lru_cache(maxsize=None)
def cached():
    return 4


class Box:
    def opened(self):
        return 5

    def shut(self):
        return 6
'''

DRIVER = '''\
import os

from repro.mod import Box, cached, child_only, used

used()
cached()
Box().opened()
pid = os.fork()
if pid == 0:
    child_only()
    os._exit(0)
os.waitpid(pid, 0)
'''


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_lists_what_never_ran_and_counts_a_forked_child(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "drive.py").write_text(DRIVER)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    unrun, total, failures = load_tool().never_ran(
        tmp_path, [["drive.py"]], scratch)
    assert failures == []
    assert total == 6
    assert sorted(d.name for d in unrun) == ["Box.shut", "never"]
    never = next(d for d in unrun if d.name == "never")
    assert (str(never.path), never.first, never.lines) \
        == (os.path.join("src", "repro", "mod.py"), 8, 2)
