"""Self-test of ``tools/check_unreferenced.py`` on a planted repository."""

import importlib.util
from pathlib import Path

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


def test_outside_tests_reports_a_helper_only_tests_name(tmp_path):
    plant(tmp_path, {
        "src/repro/mod.py": (
            "from .policy import register_policy\n"
            "def live():\n    return 1\n"
            "def test_only_helper():\n    return 2\n"
            "def dead():\n    return 3\n"
            "@register_policy('dispatch')\n"
            "class ByNameOnly:\n    pass\n"),
        "examples/use.py": "from repro.mod import live\nlive()\n",
        "tests/test_mod.py": (
            "from repro.mod import test_only_helper\n"
            "def test_it():\n    assert test_only_helper() == 2\n"),
    })
    tool = load_tool()
    # The CI mode: anything named anywhere counts, tests included.
    assert tool.unreferenced(tmp_path) == [
        "src/repro/mod.py:6: dead", "src/repro/mod.py:9: ByNameOnly"]
    # The survey: names used only under tests/ do not count; a
    # registered policy does.
    assert tool.unreferenced(tmp_path, outside_tests=True) == [
        "src/repro/mod.py:4: test_only_helper", "src/repro/mod.py:6: dead"]


def test_outside_tests_mode_is_report_only(capsys):
    tool = load_tool()
    assert tool.main(["--outside-tests"]) == 0
    assert "named only under tests/" in capsys.readouterr().err
