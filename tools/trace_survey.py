#!/usr/bin/env python3
"""List the ``src/repro`` functions that no benchmark, example or tool run
executes.

``check_unreferenced.py`` asks whether anything *names* a definition;
this asks whether anything *runs* it.  It runs a corpus of jobs — the
paper-figure benchmarks, the three repobench workloads with tracing off
and on, every example, ``perfbench --quick --check`` and both trace
exports — each in a fresh interpreter whose ``sitecustomize`` installs
a ``sys.settrace`` hook.  The hook appends the file and first line of
every code object that starts, once per process, to one shared file
opened with ``O_APPEND``; a forked worker inherits the hook and the
descriptor, and a spawned one imports the same ``sitecustomize``, so
orchestrator pool children and the epoch runner's workers are counted
even when they exit through ``os._exit`` or are terminated.  The
records are then matched against every ``def`` that :mod:`ast` finds
under ``src/repro`` (a decorated function's code starts at its first
decorator).

The output lists the functions that never ran, grouped by file, with
line counts.  It is a list of candidates, not of dead code: error
paths, the disk cache's report-side ``from_dict`` round trips and what
only some hosts reach (the forked paths on a one-core host) appear in
it too.  Report-only: the corpus takes several minutes, so this is not
part of the tier-1 suite.  Run it from the root of a checkout with:

    python tools/trace_survey.py

Exit status 1 if a job failed, because the survey is then incomplete.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "repro"
WORKLOADS = ("serve-knee", "fleet-failover", "batch-mixes")

# Installed as ``sitecustomize`` in every job's interpreter.  It records a
# code object when its first frame starts and then leaves the frame
# untraced, so the cost is one call of ``_record`` per Python call.
HOOK = '''\
import os
import sys
import threading

_MARK = os.environ["TRACE_SURVEY_MARK"]
_FD = os.open(os.environ["TRACE_SURVEY_OUT"],
              os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
_SEEN = set()


def _record(frame, event, arg):
    code = frame.f_code
    if code not in _SEEN:
        _SEEN.add(code)
        if _MARK in code.co_filename:
            os.write(_FD, f"{code.co_filename}\\t{code.co_firstlineno}\\n"
                     .encode())
    return None


sys.settrace(_record)
threading.settrace(_record)
'''


class Definition(NamedTuple):
    path: Path          # relative to the root
    name: str           # qualified: ``Class.method`` or ``outer.inner``
    first: int          # first line, the first decorator's if decorated
    last: int

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def corpus(root: Path, scratch: Path) -> List[List[str]]:
    """The jobs, as arguments to the interpreter, run from ``root``.
    Outputs a job would write into the checkout go to ``scratch``."""
    jobs = [["-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider",
             "--benchmark-disable"]]
    jobs += [["repobench/run.py", "--workload", workload, "--seed", "1",
              "--seconds", "0.1", "--trace", trace]
             for workload in WORKLOADS for trace in ("0", "1")]
    for example in sorted((root / "examples").glob("*.py")):
        # An example that offers --quick runs with it, as CI runs it.
        quick = "--quick" in example.read_text(encoding="utf-8")
        jobs.append([f"examples/{example.name}"] + ["--quick"] * quick)
    jobs.append(["benchmarks/perf/perfbench.py", "--quick", "--check",
                 "--output", str(scratch / "BENCH_PERF.json")])
    jobs += [["tools/trace_export.py", "--mode", mode, "--quick",
              "--out", str(scratch / f"{mode}-trace.json")]
             for mode in ("serving", "cluster")]
    return jobs


def definitions(root: Path) -> Iterator[Definition]:
    """Every function and method under ``root/src/repro``."""
    for path in sorted((root / PACKAGE).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        pending: List[Tuple[ast.AST, str]] = [(tree, "")]
        while pending:
            node, prefix = pending.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    name = prefix + child.name
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [
                            decorator.lineno
                            for decorator in child.decorator_list])
                        yield Definition(path.relative_to(root), name,
                                         first, child.end_lineno)
                    pending.append((child, name + "."))
                else:
                    pending.append((child, prefix))


def run_jobs(root: Path, jobs: Sequence[Sequence[str]], scratch: Path
             ) -> Tuple[Path, List[Tuple[str, Path]]]:
    """Run each job under the hook; return the record file and, for each
    job that exited non-zero, its description and log."""
    hook_dir = scratch / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    records = scratch / "records.tsv"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(hook_dir),
                                           str(root / "src")]),
               TRACE_SURVEY_OUT=str(records),
               TRACE_SURVEY_MARK=os.sep + str(PACKAGE) + os.sep)
    failures = []
    for number, job in enumerate(jobs):
        log = scratch / f"job-{number}.log"
        print(f"[{number + 1}/{len(jobs)}] {' '.join(job)}",
              file=sys.stderr, flush=True)
        with open(log, "w", encoding="utf-8") as handle:
            done = subprocess.run([sys.executable, *job], cwd=root, env=env,
                                  stdout=handle, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            failures.append((f"{' '.join(job)} exited {done.returncode}",
                             log))
    return records, failures


def ran(records: Path, root: Path) -> Set[Tuple[Path, int]]:
    """``(path relative to root, first line)`` of every recorded code;
    ``root`` is resolved."""
    seen: Set[Tuple[Path, int]] = set()
    if not records.exists():
        return seen
    for line in records.read_text(encoding="utf-8").splitlines():
        filename, first = line.rsplit("\t", 1)
        path = (root / filename).resolve()
        if path.is_relative_to(root):
            seen.add((path.relative_to(root), int(first)))
    return seen


def never_ran(root: Path, jobs: Sequence[Sequence[str]], scratch: Path
              ) -> Tuple[List[Definition], int, List[Tuple[str, Path]]]:
    """The definitions no job ran, the number of definitions, and the
    failed jobs."""
    root = root.resolve()
    records, failures = run_jobs(root, jobs, scratch)
    seen = ran(records, root)
    every = list(definitions(root))
    return ([d for d in every if (d.path, d.first) not in seen],
            len(every), failures)


def report(unrun: List[Definition], total: int) -> str:
    by_file: Dict[Path, List[Definition]] = {}
    for definition in unrun:
        by_file.setdefault(definition.path, []).append(definition)
    out = []
    covered: Set[Tuple[Path, int]] = set()
    for path, group in sorted(by_file.items()):
        lines = {(path, n) for d in group for n in range(d.first, d.last + 1)}
        covered |= lines
        out.append(f"{path}  ({len(group)} definitions, {len(lines)} lines)")
        out.extend(f"  {d.first:5d}  {d.name}  ({d.lines} lines)"
                   for d in sorted(group, key=lambda d: d.first))
    out.append(f"{len(unrun)} of {total} definitions in {PACKAGE} never ran "
               f"({len(covered)} lines)")
    return "\n".join(out)


def main(argv: Optional[List[str]] = None, root: Path = REPO_ROOT) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]) \
        .parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="trace-survey-") as tmp:
        scratch = Path(tmp)
        unrun, total, failures = never_ran(root, corpus(root, scratch),
                                           scratch)
        print(report(unrun, total))
        for failure, log in failures:
            print(f"job failed: {failure}; the end of its output:\n"
                  f"{log.read_text(encoding='utf-8')[-2000:]}",
                  file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
