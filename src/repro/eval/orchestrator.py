"""Experiment orchestration: persistent result cache and parallel runner.

The paper's evaluation re-runs dozens of (system, workload) simulations.
Before this module existed every figure function looped over the
systems serially and recomputed everything from scratch on each
invocation.  The orchestrator turns that into a declarative, cached and
parallelizable sweep:

* :class:`WorkloadSpec` — declarative description of a workload (kind +
  name); kernels are built inside the worker from the spec, so experiments
  are picklable and can run in separate processes.
* :class:`ExperimentSpec` — a workload plus a
  :class:`~repro.platform.PlatformConfig`; identified by an
  :class:`ExperimentKey` ``(system, workload, config-hash)``.
* :class:`ResultCache` — in-memory plus optional on-disk JSON cache of
  :class:`~repro.core.accelerator.ExecutionReport` objects keyed by
  :class:`ExperimentKey`; re-running an experiment set is served from disk.
* :class:`ExperimentOrchestrator` — the cache plus runner.  Each
  simulation owns an independent :class:`~repro.sim.engine.Environment`,
  so uncached experiments can fan out over a ``multiprocessing`` pool.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import re
import sys
import traceback
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Union

from ..core.accelerator import ExecutionReport
from ..core.kernel import Kernel
from ..platform.config import PlatformConfig
from ..workloads.mixes import INSTANCES_PER_KERNEL, heterogeneous_workload
from ..workloads.polybench import homogeneous_workload
from ..workloads.rodinia import realworld_workload
from .runner import ComparisonResult, run_system

#: Default instance counts from Section 5.1 (the heterogeneous default is
#: the workload layer's own, re-exported under the paper-facing name).
HOMOGENEOUS_INSTANCES = 6
HETEROGENEOUS_INSTANCES_PER_KERNEL = INSTANCES_PER_KERNEL

#: Environment variables steering the default orchestrator.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
PARALLEL_ENV = "REPRO_PARALLEL"

#: Salted into every cache key.  Bump whenever simulator behavior changes
#: (event ordering, timing models, energy accounting, report fields), so
#: persistent caches written by older code are invalidated instead of
#: silently serving stale results.
CACHE_REVISION = 1

_WORKLOAD_KINDS = ("homogeneous", "heterogeneous", "realworld")

# --------------------------------------------------------------------------- #
# Report types                                                                 #
# --------------------------------------------------------------------------- #
#: Registry of cacheable report classes by type name.  Every class must
#: round-trip through ``to_dict``/``from_dict``; the type name is written
#: next to each on-disk entry so the cache can rebuild the right class.
#: ``repro.eval.serving`` registers ``"serving"`` for
#: :class:`~repro.serve.report.ServingReport`.
_REPORT_CLASSES: Dict[str, type] = {"execution": ExecutionReport}


def register_report_class(type_name: str, cls: type) -> None:
    """Register a report class for cache (de)serialization."""
    existing = _REPORT_CLASSES.get(type_name)
    if existing is not None and existing is not cls:
        raise ValueError(f"report type {type_name!r} already registered "
                         f"for {existing.__name__}")
    _REPORT_CLASSES[type_name] = cls


def _report_type_name(report: Any) -> str:
    for name, cls in _REPORT_CLASSES.items():
        if type(report) is cls:
            return name
    raise TypeError(f"unregistered report class {type(report).__name__}; "
                    f"call register_report_class() first")


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative workload identity: how to build its kernels.

    ``kind`` selects the constructor (``homogeneous`` PolyBench,
    ``heterogeneous`` mix, ``realworld`` Rodinia/Mars); sizing (instances,
    input scale) comes from the :class:`PlatformConfig` so one workload
    spec can be swept across configurations.
    """

    kind: str
    name: str

    def __post_init__(self) -> None:
        if self.kind not in _WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; "
                f"choose from {_WORKLOAD_KINDS}")

    def resolved_instances(self, config: PlatformConfig) -> int:
        """The instance count this workload actually runs with.

        Resolves ``config.instances=None`` to the per-kind paper default —
        used both to build kernels and to canonicalize cache keys, so an
        explicit ``instances=6`` and the implicit default hash identically.
        """
        if config.instances is not None:
            return config.instances
        if self.kind == "heterogeneous":
            return HETEROGENEOUS_INSTANCES_PER_KERNEL
        return HOMOGENEOUS_INSTANCES

    def build(self, config: PlatformConfig) -> List[Kernel]:
        """Construct fresh kernels for one simulation run."""
        instances = self.resolved_instances(config)
        if self.kind == "homogeneous":
            return homogeneous_workload(self.name, instances=instances,
                                        input_scale=config.input_scale)
        if self.kind == "heterogeneous":
            return heterogeneous_workload(self.name,
                                          instances_per_kernel=instances,
                                          input_scale=config.input_scale)
        return realworld_workload(self.name, instances=instances,
                                  input_scale=config.input_scale)

    def to_dict(self) -> Dict[str, str]:
        return {"kind": self.kind, "name": self.name}


class ExperimentKey(NamedTuple):
    """Registry/cache key: which system ran which workload under which config."""

    system: str
    workload: str
    config_hash: str


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation to run: a workload on a configured platform.

    Frozen like its parts: the spec is registered and cached under
    :attr:`key`, so mutating it after first use would serve stale results
    under the old key.
    """

    workload: WorkloadSpec
    config: PlatformConfig

    @cached_property
    def key(self) -> ExperimentKey:
        # The hash covers the workload identity (so e.g. a homogeneous
        # "ATAX" run can never collide with a real-world workload sharing
        # the name), the platform config via its own stable hash, and the
        # cache revision (so caches written by older simulator code are
        # invalidated rather than served stale).  The instance count is
        # canonicalized first: instances=None and an explicit paper-default
        # count describe the same simulation and must share a key.
        resolved = self.workload.resolved_instances(self.config)
        config = (self.config if self.config.instances == resolved
                  else self.config.with_overrides(instances=resolved))
        canonical = json.dumps(
            {"workload": self.workload.to_dict(),
             "config": config.config_hash(),
             "revision": CACHE_REVISION},
            sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        return ExperimentKey(self.config.system, self.workload.name, digest)

    def execute(self) -> ExecutionReport:
        """Run this experiment in the current process (fresh Environment)."""
        kernels = self.workload.build(self.config)
        return run_system(self.config, kernels,
                          workload_name=self.workload.name)


def _execute_spec(spec: ExperimentSpec):
    """Run one spec, returning ``(ok, report-or-exception)``.

    Failures are returned, not raised, so one bad experiment cannot make
    the runner discard its completed siblings before they are cached.
    """
    try:
        return True, spec.execute()
    except Exception as exc:              # noqa: BLE001 - re-raised by run()
        return False, exc


def _execute_spec_in_pool(spec: ExperimentSpec):
    """Pool worker wrapper: like :func:`_execute_spec`, but pickle-safe.

    Only the pool path needs this — the serial path hands the original
    exception back untouched, so callers' ``except SomeError:`` still
    match.
    """
    ok, value = _execute_spec(spec)
    if ok:
        return ok, value
    try:
        pickle.loads(pickle.dumps(value))
        return False, value
    except Exception:
        # The exception itself cannot cross the pool's result pipe
        # (unpicklable payload or non-reconstructible __init__); ship a
        # faithful surrogate instead of letting Pool.map blow up and
        # discard every sibling outcome.
        detail = "".join(traceback.format_exception(
            type(value), value, value.__traceback__))
        key = spec.key
        return False, RuntimeError(
            f"experiment {key.workload!r} on "
            f"{key.system} failed with "
            f"{type(value).__name__}: {value}\n{detail}")


_SAFE = re.compile(r"[^A-Za-z0-9._-]")

#: A cache entry (or a writer's partial .tmp) as named by ``_path``:
#: ``system__workload__<16 hex digest>`` + ``.json`` / ``.<pid>.tmp``.
#: ``clear()`` only ever deletes names of this shape, so unrelated files
#: in a shared, non-dedicated cache directory survive.
_CACHE_FILE = re.compile(r"^.+__.+__[0-9a-f]{16}(\.json|\.\d+\.tmp)$")


class ResultCache:
    """Two-level (memory + optional on-disk JSON) cache of reports.

    Entries are any registered report class (``execution`` batch reports,
    ``serving`` open-loop reports, ...) — each on-disk entry records its
    ``report_type`` so the right class is rebuilt on load.  Cached report
    objects are shared, not copied: every hit for a key returns the same
    instance, so callers must treat returned reports as read-only
    (mutating one in place would corrupt every later hit for that key).
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[ExperimentKey, Any] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: ExperimentKey) -> Path:
        assert self.cache_dir is not None
        stem = "__".join(_SAFE.sub("_", part) for part in key)
        return self.cache_dir / f"{stem}.json"

    def get(self, key: ExperimentKey) -> Optional[Any]:
        if key in self._memory:
            self.hits += 1
            return self._memory[key]
        if self.cache_dir is not None:
            path = self._path(key)
            if path.is_file():
                try:
                    data = json.loads(path.read_text())
                    report_cls = _REPORT_CLASSES[
                        data.get("report_type", "execution")]
                    report = report_cls.from_dict(data["report"])
                except (OSError, ValueError, KeyError, TypeError,
                        AttributeError):
                    # Corrupt, stale, wrong-shaped, unreadable, or
                    # unknown-typed entry: treat as a miss and re-run.
                    self.misses += 1
                    return None
                self._memory[key] = report
                self.hits += 1
                return report
        self.misses += 1
        return None

    def put(self, key: ExperimentKey, report: Any,
            spec: Optional["ExperimentSpec"] = None) -> None:
        self._memory[key] = report
        self.stores += 1
        if self.cache_dir is not None:
            payload: Dict[str, object] = {
                "key": list(key),
                "report_type": _report_type_name(report),
                "report": report.to_dict()}
            if spec is not None and hasattr(spec, "workload"):
                payload["workload"] = spec.workload.to_dict()
                payload["config"] = spec.config.to_dict()
            elif spec is not None and hasattr(spec, "scenario"):
                payload["scenario"] = spec.scenario.to_dict()
                if hasattr(spec, "cluster"):
                    payload["cluster"] = spec.cluster.to_dict()
                else:
                    payload["config"] = spec.config.to_dict()
            path = self._path(key)
            # Unique temp name: the cache dir may be shared by concurrent
            # sessions (REPRO_CACHE_DIR), and two writers of the same key
            # using one fixed .tmp path would corrupt each other.
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(payload))
            try:
                tmp.replace(path)
            except FileNotFoundError:
                # A concurrent clear() swept our tmp away mid-write.  The
                # report is already in memory; losing the disk copy of one
                # entry is the correct outcome of clearing the cache.
                pass

    def clear(self) -> None:
        self._memory.clear()
        if self.cache_dir is not None:
            for path in self.cache_dir.iterdir():
                if _CACHE_FILE.match(path.name):
                    # missing_ok: a concurrent writer may have renamed or
                    # removed the file between the listing and the unlink.
                    path.unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "entries": len(self._memory)}


class ExperimentOrchestrator:
    """Cache + (optionally parallel) experiment runner.

    Specs are duck-typed: anything with a stable ``.key``
    (:class:`ExperimentKey`) and a picklable ``.execute()`` returning a
    registered report class runs through the same cache and pool —
    batch :class:`ExperimentSpec` and the serving layer's
    :class:`~repro.eval.serving.ServingExperimentSpec` alike.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None,
                 workers: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.cache = ResultCache(cache_dir)
        self.workers = workers
        self.simulations_run = 0
        #: One worker pool kept alive across :meth:`run` calls.  A sweep
        #: is many small ``run()`` batches (one per sweep point), so a
        #: pool per batch would pay the fork + interpreter warm-up each
        #: time; reused workers also keep their platform template cache
        #: (:mod:`repro.platform.builder`) warm across sweep points that
        #: share a device config.
        self._pool: Optional[Any] = None
        self.pool_launches = 0

    @classmethod
    def from_env(cls, default_workers: int = 1,
                 cache_dir: Optional[Union[str, Path]] = None
                 ) -> "ExperimentOrchestrator":
        """Build an orchestrator from the environment contract.

        ``REPRO_CACHE_DIR`` (falling back to ``cache_dir``) enables the
        persistent on-disk cache; ``REPRO_PARALLEL`` (falling back to
        ``default_workers``) sets the worker count, where ``0`` means one
        worker per CPU.
        """
        cache = os.environ.get(CACHE_DIR_ENV) or cache_dir
        raw = os.environ.get(PARALLEL_ENV)
        if raw in (None, ""):
            workers = default_workers
        else:
            try:
                workers = int(raw)
            except ValueError:
                workers = -1
            if workers < 0:
                raise ValueError(
                    f"{PARALLEL_ENV} must be a worker count >= 0 "
                    f"(0 = one per CPU), got {raw!r}")
        if workers == 0:
            workers = os.cpu_count() or 1
        return cls(cache_dir=cache, workers=max(1, workers))

    # ------------------------------------------------------------------ #
    # Worker pool lifecycle                                                #
    # ------------------------------------------------------------------ #
    def _pool_context(self):
        """The preferred multiprocessing context for worker pools."""
        # Prefer fork only on Linux, where it is both safe and fast;
        # elsewhere (macOS defaults to spawn because forking a threaded
        # parent is unsafe) respect the platform default.
        if sys.platform.startswith("linux") \
                and "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _ensure_pool(self):
        """The persistent worker pool, launched on first parallel run."""
        if self._pool is None:
            self._pool = self._pool_context().Pool(processes=self.workers)
            self.pool_launches += 1
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent).

        Safe to call mid-sweep: the next parallel :meth:`run` simply
        launches a fresh pool.  Also the exception path's cleanup — a
        pool whose workers died is discarded rather than reused.
        """
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "ExperimentOrchestrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Execution                                                            #
    # ------------------------------------------------------------------ #
    def run(self, specs: Sequence[Any]) -> Dict[ExperimentKey, Any]:
        """Run ``specs``, serving cached results and fanning out the rest.

        Uncached specs fan out over the worker pool iff the orchestrator
        was built with ``workers > 1`` (the results are identical to the
        serial in-process path — each simulation owns its Environment).
        """
        results: Dict[ExperimentKey, Any] = {}
        pending: List[Any] = []
        pending_keys: List[ExperimentKey] = []
        pending_seen: set = set()
        for spec in specs:
            key = spec.key
            if key in results or key in pending_seen:
                continue
            cached = self.cache.get(key)
            if cached is not None:
                results[key] = cached
            else:
                pending.append(spec)
                pending_keys.append(key)
                pending_seen.add(key)
        if self.workers > 1 and len(pending) > 1:
            # Tasks ship the spec itself (pickled): the workers may predate
            # these specs.  Chunked so each worker gets a batch per IPC
            # round-trip while keeping ~2 chunks per worker, so a slow
            # experiment cannot strand a whole tail.  A pool whose map
            # machinery itself fails (worker killed, unpicklable task) is
            # torn down so the next run starts clean instead of
            # deadlocking on a broken pool.
            pool = self._ensure_pool()
            chunksize = max(1, len(pending) // (self.workers * 2))
            try:
                outcomes = pool.map(_execute_spec_in_pool, pending,
                                    chunksize=chunksize)
            except BaseException:
                self.close()
                raise
        else:
            outcomes = [_execute_spec(spec) for spec in pending]
        # Cache every completed simulation before surfacing failures, so
        # one bad experiment does not throw away its siblings' work.
        errors: List[Exception] = []
        for key, spec, (ok, value) in zip(pending_keys, pending, outcomes):
            if ok:
                self.simulations_run += 1
                self.cache.put(key, value, spec)
                results[key] = value
            else:
                errors.append(value)
        if len(errors) == 1:
            raise errors[0]
        if errors:
            # Several independent failures in one batch: surface them all
            # at once instead of one per (expensive) re-run.
            raise RuntimeError(
                f"{len(errors)} experiments failed: "
                + "; ".join(f"{type(e).__name__}: {e}" for e in errors)
                ) from errors[0]
        return results

    def run_one(self, spec: Any) -> Any:
        return self.run([spec])[spec.key]

    def compare(self, workload: WorkloadSpec, systems: Sequence[str],
                config: Optional[PlatformConfig] = None) -> ComparisonResult:
        """Run one workload across ``systems`` and bundle the reports."""
        base = config if config is not None else PlatformConfig()
        specs = [ExperimentSpec(workload=workload,
                                config=base.with_overrides(system=system))
                 for system in systems]
        reports = self.run(specs)
        result = ComparisonResult(workload=workload.name)
        for system, spec in zip(systems, specs):
            result.reports[system] = reports[spec.key]
        return result

    # ------------------------------------------------------------------ #
    # Introspection                                                        #
    # ------------------------------------------------------------------ #
    @property
    def cache_stats(self) -> Dict[str, int]:
        return self.cache.stats


_default_orchestrator: Optional[ExperimentOrchestrator] = None


def default_orchestrator() -> ExperimentOrchestrator:
    """The process-wide orchestrator the figure functions fall back to.

    Configured through the environment: ``REPRO_CACHE_DIR`` enables the
    persistent on-disk cache, ``REPRO_PARALLEL`` sets the worker count
    (``0`` means one worker per CPU).
    """
    global _default_orchestrator
    if _default_orchestrator is None:
        _default_orchestrator = ExperimentOrchestrator.from_env()
    return _default_orchestrator
