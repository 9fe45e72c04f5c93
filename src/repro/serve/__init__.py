"""Online serving subsystem: open-loop arrivals, admission, SLO accounting.

``repro.serve`` drives the FlashAbacus accelerator and the SIMD baseline
under open-loop, multi-tenant request traffic instead of one-shot batches:
arrival processes emit timestamped kernel-offload requests from the
Table-2 pool, a front-end applies admission control over per-tenant
queues, a dispatcher feeds the accelerator's scheduler as LWP capacity
frees up, and per-tenant SLO accounts record the end-to-end latency tail
(p50/p95/p99/p99.9), goodput versus offered load, and SLO violations.
"""

from .admission import (
    AdmissionController,
    AlwaysAdmit,
    DeadlineAwareAdmission,
    QueueDepthAdmission,
    TokenBucketAdmission,
)
from .dispatch import (
    DispatchPolicy,
    RoundRobinDispatch,
    StrictPriorityDispatch,
    WeightedFairDispatch,
)
from .arrivals import (
    DEFAULT_WORKLOAD_POOL,
    ArrivalProcess,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TenantSpec,
    TraceArrivals,
)
from .backends import AcceleratorBackend, BaselineBackend, ServingBackend
from .frontend import ServingFrontend
from .report import ServingReport
from .request import Request, RequestRecord, RequestStatus
from .session import (
    DEFAULT_TENANTS,
    ServingScenario,
    ServingSession,
    build_serving_backend,
    make_kernel_factory,
    run_serving,
)
from .slo import REPORT_PERCENTILES, SLOTracker, TenantAccount

__all__ = [
    "AdmissionController",
    "AlwaysAdmit",
    "DeadlineAwareAdmission",
    "QueueDepthAdmission",
    "TokenBucketAdmission",
    "DispatchPolicy",
    "RoundRobinDispatch",
    "StrictPriorityDispatch",
    "WeightedFairDispatch",
    "DEFAULT_WORKLOAD_POOL",
    "ArrivalProcess",
    "DiurnalArrivals",
    "MMPPArrivals",
    "PoissonArrivals",
    "TenantSpec",
    "TraceArrivals",
    "AcceleratorBackend",
    "BaselineBackend",
    "ServingBackend",
    "ServingFrontend",
    "ServingReport",
    "Request",
    "RequestRecord",
    "RequestStatus",
    "DEFAULT_TENANTS",
    "ServingScenario",
    "ServingSession",
    "build_serving_backend",
    "make_kernel_factory",
    "run_serving",
    "REPORT_PERCENTILES",
    "SLOTracker",
    "TenantAccount",
]
