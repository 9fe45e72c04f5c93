#!/usr/bin/env python3
"""Fail if ``src/repro`` defines a function, method or class only tests use.

Collects every ``def`` and ``class`` in ``src/repro`` (dunder names are
skipped: the language calls them).  Then it collects every identifier
the repository's Python files outside ``tests/`` use — a bare name
read (``foo``), an attribute (``x.foo``) or an import (``from m import
foo``) — parsed with :mod:`ast`, so comments and string literals do not
count and f-string expressions do.  Three rules keep the count honest:

- a bare name counts only where it is read and no enclosing function
  binds it as a variable (a parameter, an assignment target, an import
  or an exception name): a local ``invalidate = ...``, or a closure's
  read of its outer function's ``counter`` parameter, is not a use of a
  method of that name, while a call of a nested ``def`` is a use of it;
- an import in a ``src/repro/**/__init__.py`` is not a use: a package
  re-export names a definition without calling it;
- a class decorated with ``@register_policy`` is used: the policy
  registry builds it by name.

A definition whose name nothing else uses is dead code or surface only
tests need: the script lists each one with its location and exits 1.
There is no allowlist; delete the definition or use it.

A name shared by several definitions counts as used for all of them,
so the check is conservative: it never reports live code, but a shared
name hides a dead method.  ``ObsConfig.from_dict`` passed here while
nothing called it, because the report classes' live ``from_dict``s
share its name.  ``tools/trace_survey.py``, which records what a corpus
of runs executes, is what catches those.  Counting a call on ``self``
only for the enclosing class would not: a base class calls its
subclasses' overrides through ``self`` (``_on_offload``,
``_arrival_times``, ``_learn``, ``_snapshot_extra``), and that rule
reports all of them.

Used by the CI lint job; run locally with:

    python tools/check_unreferenced.py
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

SKIP_DIRS = {".git", ".github", "__pycache__", ".pytest_cache",
             ".hypothesis", ".repro-cache", ".repobench", ".bench_build",
             ".claude", "build", "dist"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def python_files(root: Path) -> Iterator[Path]:
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).parts
        if not any(part in SKIP_DIRS or part.endswith(".egg-info")
                   for part in relative):
            yield path


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def local_names(function: ast.AST) -> Set[str]:
    """Variables ``function`` binds in its own scope, less those it
    declares ``global`` or ``nonlocal``; nested definitions are not
    variables."""
    arguments = function.args
    bound = {arg.arg for arg in (*arguments.posonlyargs, *arguments.args,
                                 *arguments.kwonlyargs, arguments.vararg,
                                 arguments.kwarg) if arg is not None}
    declared: Set[str] = set()
    body = function.body
    pending = list(body) if isinstance(body, list) else [body]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name.split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        if not isinstance(node, DEFINITIONS + FUNCTIONS):
            pending.extend(ast.iter_child_nodes(node))
    return bound - declared


def used_names(tree: ast.AST, count_imports: bool = True) -> Set[str]:
    names: Set[str] = set()
    pending = [(tree, frozenset())]
    while pending:
        node, local = pending.pop()
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in local:
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and count_imports:
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
        if isinstance(node, FUNCTIONS):
            local = local | local_names(node)
        pending.extend((child, local) for child in ast.iter_child_nodes(node))
    return names


def definitions(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, node.lineno


def registered_policies(tree: ast.AST) -> Set[str]:
    """Classes decorated with ``@register_policy(...)``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = (decorator.func if isinstance(decorator, ast.Call)
                          else decorator)
                if getattr(target, "id", getattr(target, "attr", None)) \
                        == "register_policy":
                    names.add(node.name)
    return names


def unreferenced(root: Path = REPO_ROOT) -> List[str]:
    """``path:line: name`` of every definition under ``root/src/repro``
    that no Python file under ``root`` outside ``tests/`` names."""
    package = root / "src" / "repro"
    used: Set[str] = set()
    for path in python_files(root):
        if path.relative_to(root).parts[0] == "tests":
            continue
        tree = parse(path)
        reexport = (path.name == "__init__.py"
                    and path.is_relative_to(package))
        used |= used_names(tree, count_imports=not reexport)
        if path.is_relative_to(package):
            used |= registered_policies(tree)
    return [f"{path.relative_to(root)}:{line}: {name}"
            for path in python_files(package)
            for name, line in definitions(parse(path))
            if name not in used]


def main(argv: Optional[List[str]] = None, root: Path = REPO_ROOT) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]) \
        .parse_args(argv)
    dead = unreferenced(root)
    for entry in dead:
        print(entry)
    if dead:
        print(f"{len(dead)} definition(s) in src/repro are named by no "
              f"Python file outside tests/ and package re-exports",
              file=sys.stderr)
        return 1
    print("every function, method and class in src/repro is used "
          "outside tests/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
