"""Per-layer host-time tracing for the benchmark's ``--trace 1`` runs.

:func:`install` wraps every function and method that the ``repro``
package defines, from outside the package: the wrappers live here and
the simulator's source is untouched.  Each wrapper opens a *span* for
the layer that owns the callee (see :data:`LAYER_OF_MODULE`); a layer's
self time is the span's duration minus the part its child spans cover.
A call that stays inside the caller's layer opens no span, so its time
stays with the enclosing span of the same layer.

Simulation processes are generators resumed by the engine.  A wrapped
generator function returns a generator that times every resume as its
own span, so a process's work is charged to the layer that wrote it and
not to the engine that resumed it.

Forked workers (the cluster runner's shards, the orchestrator's pool)
inherit the wrappers.  At fork the child's recorder starts empty, and
it writes its totals to a JSON file in the spool directory; the parent
merges those files with :func:`merge_spool`.

Simulated counters are harvested from live objects: every environment,
flash backbone, Storengine, accelerator and host storage stack built
while tracing is registered, and :meth:`Recorder.harvest` reads their
counters once the run is over.  They are deterministic for a seed.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Module prefix -> layer; the longest matching prefix wins.
LAYER_OF_MODULE: Dict[str, str] = {
    "repro": "repro",
    "repro.sim": "sim",
    "repro.sim.stats": "sim.stats",
    "repro.core": "core.accelerator",
    "repro.core.range_lock": "core.range_lock",
    "repro.core.execution_chain": "core.execution_chain",
    "repro.core.schedulers": "core.schedulers",
    "repro.core.flashvisor": "core.flashvisor",
    "repro.core.storengine": "core.storengine",
    "repro.hw": "hw",
    "repro.flash": "flash",
    "repro.baseline": "baseline",
    "repro.serve": "serve.session",
    "repro.serve.slo": "serve.slo",
    "repro.serve.frontend": "serve.frontend",
    "repro.serve.admission": "serve.frontend",
    "repro.serve.dispatch": "serve.frontend",
    "repro.cluster": "cluster",
    "repro.cluster.placement": "cluster.placement",
    "repro.eval": "eval",
    "repro.platform": "platform",
    "repro.workloads": "workloads",
    "repro.policy": "policy",
    "repro.obs": "obs",
    "repro.perf": "perf",
}

#: Single functions charged to a layer of their own.
LAYER_OF_FUNCTION: Dict[str, str] = {
    # The coordinator blocked on a worker pipe (read + unpickle).
    "repro.cluster.parallel._recv": "cluster.wait",
    # The packed epoch-boundary codec.
    "repro.cluster.parallel.pack_shard_result": "cluster.codec",
    "repro.cluster.parallel.unpack_shard_result": "cluster.codec",
}

#: Time outside every span: the benchmark's own code and unwrapped code.
ROOT = "other"

#: Calls counted per function (``module:qualname suffix`` -> counter).
CALL_COUNTERS: Dict[str, str] = {
    "repro.core.range_lock:RangeLock.try_acquire":
        "core.range_lock.acquires",
    "repro.core.execution_chain:.ready_screens":
        "core.execution_chain.ready_screens_calls",
    # Once per step of drive_until_settled (subclasses chain to it).
    "repro.serve.backends:ServingBackend.check_health":
        "serve.session.polls",
    "repro.flash.backbone:FlashBackbone.bulk_read": "flash.bulk_ops",
    "repro.flash.backbone:FlashBackbone.bulk_program": "flash.bulk_ops",
    "repro.cluster.placement:.select": "cluster.placement.decisions",
}

#: Functions whose result length is summed into a counter.
RESULT_COUNTERS: Dict[str, str] = {
    "repro.serve.frontend:ServingFrontend.evict_queued": "cluster.evicted",
}

#: Inclusive time of a function, summed into a counter.
INCLUSIVE_TIMERS: Dict[str, str] = {
    "repro.platform.builder:resolve_substrate": "platform.build_s",
    "repro.eval.orchestrator:_execute_spec": "eval.orchestrator.task_s",
}

#: Functions after which a forked child writes its totals to the spool:
#: a cluster worker when it exits, a pool worker after each experiment.
DUMP_AFTER = frozenset({
    "repro.cluster.parallel:_worker_main",
    "repro.eval.orchestrator:_execute_spec",
})

#: Classes whose instances are registered for :meth:`Recorder.harvest`.
HARVESTED = (
    "repro.sim.engine:Environment",
    "repro.flash.backbone:FlashBackbone",
    "repro.core.storengine:Storengine",
    "repro.core.accelerator:FlashAbacusAccelerator",
    "repro.baseline.storage_stack:HostStorageStack",
)


def layer_of(module: str, qualname: str = "") -> str:
    """The layer that owns ``module.qualname``."""
    special = LAYER_OF_FUNCTION.get(f"{module}.{qualname}")
    if special is not None:
        return special
    best = ""
    for prefix in LAYER_OF_MODULE:
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best = prefix
    return LAYER_OF_MODULE[best] if best else ROOT


def _matches(table: Dict[str, str], module: str,
             qualname: str) -> Optional[str]:
    for key, value in table.items():
        mod, _, suffix = key.partition(":")
        if mod == module and (qualname == suffix or (
                suffix.startswith(".") and qualname.endswith(suffix))):
            return value
    return None


class Recorder:
    """Span stack, per-layer totals and named counters of one process."""

    def __init__(self) -> None:
        self.parent_pid = os.getpid()
        self.spool: Optional[Path] = None
        self.ipc = False
        self.reset()

    def reset(self) -> None:
        """Drop every total and start a fresh root span."""
        self.stack: List[list] = [[ROOT, 0.0]]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.spans: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.means: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        self.instances: List[Any] = []

    @property
    def in_child(self) -> bool:
        return os.getpid() != self.parent_pid

    # -- simulated counters -------------------------------------------------
    def mean(self, name: str, value: float) -> None:
        entry = self.means[name]
        entry[0] += value
        entry[1] += 1

    def harvest(self) -> None:
        """Fold the counters of every registered simulation object."""
        counters = self.counters
        for obj in self.instances:
            kind = type(obj).__name__
            if kind == "Environment":
                counters["sim.events"] += obj._eid
            elif kind == "FlashBackbone":
                counters["flash.read_bytes"] += obj.bytes_read()
                counters["flash.write_bytes"] += obj.bytes_written()
                counters["flash.page_group_ops"] += (
                    obj.page_group_reads + obj.page_group_writes)
                self.mean("flash.channel_utilization",
                          obj.mean_channel_utilization())
                # Data sections stream through the bulk lanes, not the
                # per-channel buses the page-group path uses.
                self.mean("flash.read_lane_utilization",
                          obj._bulk_read_lane.utilization())
            elif kind == "Storengine":
                counters["core.storengine.flushed_bytes"] += \
                    obj.stats.flushed_bytes
                counters["core.storengine.gc_invocations"] += \
                    obj.stats.gc_invocations
            elif kind == "FlashAbacusAccelerator":
                counters["core.screens_executed"] += obj.screens_executed
                counters["core.borrowed_dispatches"] += getattr(
                    obj.scheduler, "borrowed_dispatches", 0)
                counters["core.lock_conflicts"] += \
                    obj.flashvisor.stats.lock_conflicts
                self.mean("core.lwp_utilization",
                          obj.cluster.worker_utilization(obj.env.now))
            elif kind == "HostStorageStack":
                counters["baseline.io_requests"] += obj.stats.io_requests
                counters["baseline.copied_bytes"] += obj.stats.copied_bytes
        self.instances.clear()

    # -- cross-process merge -------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {"self_s": dict(self.self_s), "spans": dict(self.spans),
                "counters": dict(self.counters),
                "means": {k: list(v) for k, v in self.means.items()}}

    def dump(self) -> None:
        """Write this (child) process's totals to the spool directory."""
        if self.spool is None:
            return
        self.harvest()
        path = self.spool / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        tmp.replace(path)


def empty_totals() -> Dict[str, Any]:
    return {"self_s": defaultdict(float), "spans": defaultdict(int),
            "counters": defaultdict(float),
            "means": defaultdict(lambda: [0.0, 0])}


def add_totals(into: Dict[str, Any], snap: Dict[str, Any]) -> None:
    for key in ("self_s", "spans", "counters"):
        for name, value in snap[key].items():
            into[key][name] += value
    for name, (total, count) in snap["means"].items():
        into["means"][name][0] += total
        into["means"][name][1] += count


def merge_spool(spool: Path) -> Dict[str, Any]:
    """Sum the totals every forked child wrote into ``spool``."""
    totals = empty_totals()
    for path in sorted(spool.glob("*.json")):
        add_totals(totals, json.loads(path.read_text()))
    return totals


# --------------------------------------------------------------------- #
# Wrappers                                                               #
# --------------------------------------------------------------------- #
def _wrap_function(fn: Callable, layer: str, rec: Recorder,
                   counter: Optional[str], timer: Optional[str],
                   dump: bool, sized: Optional[str]):
    clock = time.perf_counter
    original = fn
    if sized is not None:
        def fn(*args, **kwargs):
            result = original(*args, **kwargs)
            rec.counters[sized] += len(result)
            return result

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if counter is not None:
            rec.counters[counter] += 1
        stack = rec.stack
        parent = stack[-1]
        if parent[0] == layer and timer is None:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stack.pop()
            if parent[0] == layer:
                # A same-layer call, framed only for its inclusive timer:
                # hand its children's time to the caller's span, as if
                # there had been no frame.
                parent[1] += frame[1]
            else:
                parent[1] += elapsed
                rec.self_s[layer] += elapsed - frame[1]
                rec.spans[layer] += 1
            if timer is not None:
                rec.counters[timer] += elapsed
            if dump and rec.in_child:
                rec.dump()

    return wrapper


def _traced_resumes(gen, layer: str, rec: Recorder):
    """Drive ``gen``, timing each resume as one span of ``layer``."""
    clock = time.perf_counter
    send = gen.send
    value: Any = None
    thrown: Optional[BaseException] = None
    while True:
        stack = rec.stack
        parent = stack[-1]
        if parent[0] == layer:
            try:
                item = send(value) if thrown is None else gen.throw(thrown)
            except StopIteration as stop:
                return stop.value
        else:
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                item = send(value) if thrown is None else gen.throw(thrown)
            except StopIteration as stop:
                return stop.value
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec.self_s[layer] += elapsed - frame[1]
                rec.spans[layer] += 1
        thrown = None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as error:  # forwarded into the process
            thrown, value = error, None
        del item


def _wrap_generator(fn: Callable, layer: str, rec: Recorder,
                    counter: Optional[str]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is not None:
            rec.counters[counter] += 1
        return _traced_resumes(fn(*args, **kwargs), layer, rec)

    return wrapper


def _register_after_init(init: Callable, rec: Recorder):
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        rec.instances.append(self)

    return wrapper


def _wrap(fn: Callable, module: str, qualname: str, rec: Recorder):
    layer = layer_of(module, qualname)
    counter = _matches(CALL_COUNTERS, module, qualname)
    if inspect.isgeneratorfunction(fn):
        return _wrap_generator(fn, layer, rec, counter)
    timer = _matches(INCLUSIVE_TIMERS, module, qualname)
    dump = f"{module}:{qualname}" in DUMP_AFTER
    sized = _matches(RESULT_COUNTERS, module, qualname)
    return _wrap_function(fn, layer, rec, counter, timer, dump, sized)


def _wrappable_class(cls: type) -> bool:
    return not (issubclass(cls, (BaseException, enum.Enum))
                or getattr(cls, "_is_protocol", False))


def import_all() -> List[types.ModuleType]:
    """Import every ``repro`` module so lazy imports are wrapped too."""
    import repro
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        modules.append(importlib.import_module(info.name))
    return modules


def install(rec: Recorder) -> int:
    """Wrap every function and method of ``repro``; returns the count."""
    modules = import_all()
    replaced: Dict[int, Callable] = {}
    wrapped = 0
    for module in modules:
        name = module.__name__
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) \
                    and value.__module__ == name:
                replaced[id(value)] = _wrap(value, name, value.__qualname__,
                                            rec)
                wrapped += 1
            elif isinstance(value, type) and value.__module__ == name \
                    and _wrappable_class(value):
                wrapped += _wrap_class(value, name, rec)
    # Rebind every module-level reference (``from x import f`` copies).
    for module in modules:
        for attr, value in list(vars(module).items()):
            new = replaced.get(id(value))
            if new is not None:
                setattr(module, attr, new)
    for target in HARVESTED:
        mod, _, cls_name = target.partition(":")
        cls = getattr(importlib.import_module(mod), cls_name)
        cls.__init__ = _register_after_init(cls.__init__, rec)
    os.register_at_fork(after_in_child=rec.reset)
    _count_pipe_bytes(rec)
    return wrapped


def _wrap_class(cls: type, module: str, rec: Recorder) -> int:
    wrapped = 0
    for attr, value in list(vars(cls).items()):
        if attr.startswith("__") and attr not in ("__init__", "__call__"):
            continue
        if isinstance(value, staticmethod):
            fn, rewrap = value.__func__, staticmethod
        elif isinstance(value, classmethod):
            fn, rewrap = value.__func__, classmethod
        elif isinstance(value, types.FunctionType):
            fn, rewrap = value, None
        else:
            continue
        new = _wrap(fn, module, fn.__qualname__, rec)
        setattr(cls, attr, rewrap(new) if rewrap else new)
        wrapped += 1
    return wrapped


def _count_pipe_bytes(rec: Recorder) -> None:
    """Count the bytes the parent moves over worker pipes while
    ``rec.ipc`` is set (the cluster runner's epoch traffic)."""
    from multiprocessing import connection

    send_bytes = connection.Connection._send_bytes
    recv_bytes = connection.Connection._recv_bytes

    def counted_send(self, buf):
        if rec.ipc and not rec.in_child:
            rec.counters["cluster.ipc_bytes"] += len(buf)
        return send_bytes(self, buf)

    def counted_recv(self, maxsize=None):
        buf = recv_bytes(self, maxsize)
        if rec.ipc and not rec.in_child:
            rec.counters["cluster.ipc_bytes"] += buf.getbuffer().nbytes
        return buf

    connection.Connection._send_bytes = counted_send
    connection.Connection._recv_bytes = counted_recv
