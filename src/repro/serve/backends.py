"""Execution backends for the serving front-end.

A backend turns dispatched requests into kernel executions on one of the
two systems and reports completions back to the front-end:

* :class:`AcceleratorBackend` — FlashAbacus in service mode: each request
  is offloaded incrementally (PCIe download + boot sequence) and handed
  to the multi-kernel scheduler; capacity is one request per worker LWP.
* :class:`BaselineBackend` — the conventional ``SIMD`` system: strictly
  serial, one request at a time through the SSD -> host -> PCIe path.

Both expose the same tiny surface the dispatcher relies on:
``capacity``, ``in_flight`` and ``dispatch(record, on_complete)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..baseline.system import BaselineSystem
from ..core.accelerator import FlashAbacusAccelerator
from ..core.kernel import Kernel
from .request import Request, RequestRecord

KernelFactory = Callable[[Request], Kernel]
CompletionCallback = Callable[[RequestRecord, float], None]


class ServingBackend:
    """Common bookkeeping: in-flight count and trace tagging.

    Backend processes are started with
    :meth:`~repro.sim.engine.Environment.spawn`, so a crash re-raises
    out of the engine loop driving the session; nothing polls them.
    """

    def __init__(self, env, kernel_factory: KernelFactory, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.kernel_factory = kernel_factory
        self.capacity = capacity
        self.in_flight = 0
        # Observability (repro.obs): captured from the environment in
        # start() — sessions attach a tracer before starting the backend
        # — and every span site guards on None.  ``trace_device``
        # distinguishes shards in cluster traces.
        self._tracer = None
        self.trace_device = 0

    def start(self) -> None:
        """Called once before the first dispatch."""
        self._tracer = self.env.tracer

    def bind_trace_device(self, device: int) -> None:
        """Tag this backend's span events with shard index ``device``."""
        self.trace_device = device

    def dispatch(self, record: RequestRecord,
                 on_complete: CompletionCallback) -> None:
        """Execute ``record``; call ``on_complete(record, now)`` when done."""
        raise NotImplementedError

    def finish(self) -> None:
        """Called once after the last completion."""

    @property
    def energy_j(self) -> float:
        """Total energy the backend's device has consumed (joules)."""
        return 0.0


class AcceleratorBackend(ServingBackend):
    """FlashAbacus in service mode: multi-kernel scheduling of requests."""

    def __init__(self, accelerator: FlashAbacusAccelerator,
                 kernel_factory: KernelFactory):
        super().__init__(accelerator.env, kernel_factory,
                         capacity=accelerator.worker_count)
        self.accelerator = accelerator
        self._pending: Dict[int, Tuple[RequestRecord,
                                       CompletionCallback]] = {}
        accelerator.on_kernel_complete = self._on_kernel_complete

    def start(self) -> None:
        """Enter service mode on the accelerator."""
        super().start()
        self.accelerator.begin_service()

    def bind_trace_device(self, device: int) -> None:
        """Tag backend *and* accelerator span events with the shard."""
        super().bind_trace_device(device)
        self.accelerator.trace_device = device

    def dispatch(self, record: RequestRecord,
                 on_complete: CompletionCallback) -> None:
        """Offload one request's kernel into the running scheduler."""
        kernel = self.kernel_factory(record.request)
        self._pending[kernel.kernel_id] = (record, on_complete)
        self.in_flight += 1
        tracer = self._tracer
        if tracer is None:
            # The untraced hot path: identical to pre-observability code.
            self.env.spawn(self.accelerator.submit_kernel(kernel))
            return
        # Kernel spans correlate via kernel.instance (the request id the
        # factory stamped), not kernel_id: that counter is process-global
        # and would break same-seed trace determinism within a process.
        tracer.span(self.env.now, "service_begin",
                    record.request.request_id, record.request.tenant,
                    self.trace_device, kernel.instance)
        self.env.spawn(self._traced_submit(kernel, record, tracer))

    def _traced_submit(self, kernel: Kernel, record: RequestRecord,
                       tracer):
        # Same process shape as the untraced path (one process driving
        # submit_kernel's yields); the extra frame only exists when a
        # tracer is attached.  The span lands after the PCIe offload
        # sequence, i.e. when the kernel enters the on-device scheduler.
        yield from self.accelerator.submit_kernel(kernel)
        tracer.span(self.env.now, "kernel_begin",
                    record.request.request_id, record.request.tenant,
                    self.trace_device, kernel.instance)

    def _on_kernel_complete(self, kernel: Kernel, now: float) -> None:
        entry = self._pending.pop(kernel.kernel_id, None)
        if entry is None:       # not one of ours (e.g. a mixed-use run)
            return
        record, on_complete = entry
        self.in_flight -= 1
        tracer = self._tracer
        if tracer is not None:
            tracer.span(now, "kernel_end", record.request.request_id,
                        record.request.tenant, self.trace_device,
                        kernel.instance)
        on_complete(record, now)

    def finish(self) -> None:
        """Leave service mode; stop Storengine and drain buffered writes."""
        self.accelerator.end_service()
        # Stop the background loop, then flush the buffered flash writes
        # (mirrors run_workload): stop() alone would drop any bytes
        # buffered since Storengine's last poll and undercount storage
        # energy.  The drain process runs during the session's
        # quiescence loop.
        self.accelerator.storengine.stop()
        self.env.spawn(self.accelerator.storengine.drain())
        # Every kernel has completed: drop the bound method, which would
        # keep accelerator -> backend -> accelerator a reference cycle.
        self.accelerator.on_kernel_complete = None

    @property
    def energy_j(self) -> float:
        """Accelerator energy breakdown total (joules)."""
        return self.accelerator.energy.breakdown.total

    def scheduler_stats(self) -> Dict[str, float]:
        """Scheduler counters for the serving report."""
        return self.accelerator._scheduler_stats()


class BaselineBackend(ServingBackend):
    """The conventional system: strictly serial request execution."""

    def __init__(self, system: BaselineSystem,
                 kernel_factory: KernelFactory):
        super().__init__(system.env, kernel_factory, capacity=1)
        self.system = system

    def dispatch(self, record: RequestRecord,
                 on_complete: CompletionCallback) -> None:
        """Run one request through the serial SSD -> host -> PCIe path."""
        self.in_flight += 1
        self.env.spawn(self._serve(record, on_complete))

    def _serve(self, record: RequestRecord,
               on_complete: CompletionCallback):
        kernel = self.kernel_factory(record.request)
        tracer = self._tracer
        if tracer is not None:
            # The serial baseline has no offload/scheduler split:
            # service and kernel both begin at dispatch time.
            rid = record.request.request_id
            tenant = record.request.tenant
            tracer.span(self.env.now, "service_begin", rid, tenant,
                        self.trace_device, kernel.instance)
            tracer.span(self.env.now, "kernel_begin", rid, tenant,
                        self.trace_device, kernel.instance)
        yield from self.system.serve_kernel(kernel)
        self.in_flight -= 1
        if tracer is not None:
            tracer.span(self.env.now, "kernel_end",
                        record.request.request_id, record.request.tenant,
                        self.trace_device, kernel.instance)
        on_complete(record, self.env.now)

    @property
    def energy_j(self) -> float:
        """Baseline-system energy breakdown total (joules)."""
        return self.system.energy.breakdown.total

    def scheduler_stats(self) -> Dict[str, float]:
        """SSD request counters for the serving report."""
        return {
            "ssd_reads": float(self.system.ssd.read_requests),
            "ssd_writes": float(self.system.ssd.write_requests),
        }
