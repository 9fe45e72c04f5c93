#!/usr/bin/env python3
"""Fail if ``src/repro`` defines a function, method or class nothing names.

Collects every ``def`` and ``class`` in ``src/repro`` (dunder names are
skipped: the language calls them).  Then it collects every identifier
the repository's Python files use — a name read or written
(``foo``), an attribute (``x.foo``) or an import (``from m import
foo``) — parsed with :mod:`ast`, so comments and string literals do not
count and f-string expressions do.  A definition whose name no file
uses is dead code: the script lists each one with its location and
exits 1.  There is no allowlist; delete the definition or use it.

A name shared by several definitions counts as used for all of them,
so the check is conservative: it never reports live code, but it can
miss a dead method that shares its name with a live one.

Used by the CI lint job; run locally with:

    python tools/check_unreferenced.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"

SKIP_DIRS = {".git", ".github", "__pycache__", ".pytest_cache",
             ".hypothesis", ".repro-cache", ".repobench", ".bench_build",
             ".claude", "build", "dist"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def python_files(root: Path) -> Iterator[Path]:
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(REPO_ROOT).parts
        if not any(part in SKIP_DIRS or part.endswith(".egg-info")
                   for part in relative):
            yield path


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def used_names(tree: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
    return names


def definitions(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, node.lineno


def unreferenced() -> List[str]:
    used: Set[str] = set()
    for path in python_files(REPO_ROOT):
        used |= used_names(parse(path))
    return [f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
            for path in python_files(PACKAGE)
            for name, line in definitions(parse(path))
            if name not in used]


def main() -> int:
    dead = unreferenced()
    for entry in dead:
        print(entry)
    if dead:
        print(f"{len(dead)} definition(s) in src/repro are never named "
              f"by any Python file in the repository", file=sys.stderr)
        return 1
    print("every function, method and class in src/repro is referenced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
