#!/usr/bin/env python3
"""Fail if ``src/repro`` defines code, or stores an attribute, only tests use.

The script runs two passes and exits 1 if either finds anything.

**Definitions.**

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

**Attributes.**  Collects every attribute ``src/repro`` stores: an
``ast.Attribute`` assignment target (``x.foo = ...``, ``x.foo += ...``).
An attribute is read where it is loaded (``x.foo``) or where any string
literal equals its name, in a Python file outside ``tests/``: the string
rule covers ``getattr`` over a literal name, which the accelerator's
scheduler stats use.  A ``__slots__`` entry is a declaration, not a read.
Two kinds of store are exempt:

- an attribute an exception class sets on ``self``: an error's details
  are for whatever handler catches it;
- a dataclass field set only by the constructor, which is a keyword
  argument and no attribute store at all.

An attribute that nothing reads is a counter or a field kept up to date
for no one; the script lists each with its first store in each file.
Like the first pass, this one has no allowlist and matches by name, so
it cannot see

- an attribute sharing its name with a read one: ``OffloadController``
  kept an ``energy`` accountant it never used, hidden by every other
  class's read ``energy``, and each ``LWP`` counted its
  ``screens_executed``, hidden by the accelerator's;
- a container written only by subscript (``x.table[key] = value`` loads
  ``x.table``): the offload controller's boot address registers grew by
  one entry per kernel and were never read.

Used by the CI lint job; run locally with:

    python tools/check_unreferenced.py
"""

from __future__ import annotations

import argparse
import ast
import builtins
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

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


def exception_classes(trees: List[ast.AST]) -> Set[str]:
    """Names of the classes in ``trees`` that derive from a built-in
    exception, directly or through one another."""
    names = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    classes = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    grown = True
    while grown:
        grown = False
        for node in classes:
            if node.name not in names and any(
                    getattr(base, "id", getattr(base, "attr", None)) in names
                    for base in node.bases):
                names.add(node.name)
                grown = True
    return names


def stored_attributes(tree: ast.AST,
                      exceptions: Set[str]) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` of every attribute store in ``tree``, less the
    ones an exception class makes on ``self``."""
    pending = [(tree, False)]
    while pending:
        node, in_exception = pending.pop()
        if isinstance(node, ast.ClassDef):
            in_exception = node.name in exceptions
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store) and not (
                    in_exception and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
            yield node.attr, node.lineno
        pending.extend((child, in_exception)
                       for child in ast.iter_child_nodes(node))


def read_attributes(tree: ast.AST) -> Set[str]:
    """Attribute names ``tree`` loads, and every string literal in it
    outside a ``__slots__`` declaration."""
    slots = {id(node)
             for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
             and any(getattr(target, "id", None) == "__slots__"
                     for target in assign.targets)
             for node in ast.walk(assign.value)}
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in slots:
            names.add(node.value)
    return names


def outside_tests(root: Path) -> Iterator[Path]:
    for path in python_files(root):
        if path.relative_to(root).parts[0] != "tests":
            yield path


def unread_attributes(root: Path = REPO_ROOT) -> List[str]:
    """``path:line: .name`` of the first store, in each file, of every
    attribute ``root/src/repro`` stores and no Python file under
    ``root`` outside ``tests/`` reads."""
    read: Set[str] = set()
    for path in outside_tests(root):
        read |= read_attributes(parse(path))
    trees = {path: parse(path)
             for path in python_files(root / "src" / "repro")}
    exceptions = exception_classes(list(trees.values()))
    unread: Dict[Tuple[Path, str], int] = {}
    for path, tree in trees.items():
        for name, line in stored_attributes(tree, exceptions):
            if name not in read:
                key = (path, name)
                unread[key] = min(line, unread.get(key, line))
    return [f"{path.relative_to(root)}:{line}: .{name}"
            for (path, name), line in sorted(
                unread.items(), key=lambda item: (item[0][0], item[1]))]


def unreferenced(root: Path = REPO_ROOT) -> List[str]:
    """``path:line: name`` of every definition under ``root/src/repro``
    that no Python file under ``root`` outside ``tests/`` names."""
    package = root / "src" / "repro"
    used: Set[str] = set()
    for path in outside_tests(root):
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
    unread = unread_attributes(root)
    for entry in dead + unread:
        print(entry)
    if dead:
        print(f"{len(dead)} definition(s) in src/repro are named by no "
              f"Python file outside tests/ and package re-exports",
              file=sys.stderr)
    if unread:
        print(f"{len(unread)} attribute store(s) in src/repro are read by "
              f"no Python file outside tests/", file=sys.stderr)
    if dead or unread:
        return 1
    print("every function, method and class in src/repro is used, and "
          "every attribute it stores is read, outside tests/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
