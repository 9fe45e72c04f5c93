"""FlashAbacus reproduction.

A behavioral, discrete-event reproduction of *FlashAbacus: A Self-Governing
Flash-Based Accelerator for Low-Power Systems* (Zhang & Jung, EuroSys 2018):
the self-governing accelerator (multi-kernel execution, Flashvisor,
Storengine, the four scheduling policies), the conventional SIMD baseline it
is compared against, the Table 2 workloads, and the full evaluation harness
regenerating every table and figure of the paper's Section 5.

Quick start::

    from repro import PlatformConfig, homogeneous_workload
    from repro.eval import run_system

    flashabacus = run_system(PlatformConfig(system="IntraO3"),
                             homogeneous_workload("ATAX", instances=6))
    simd = run_system(PlatformConfig(system="SIMD"),
                      homogeneous_workload("ATAX", instances=6))
    print(flashabacus.throughput_mb_per_s / simd.throughput_mb_per_s)
"""

from .core import (
    ExecutionReport,
    FlashAbacusAccelerator,
    Kernel,
    Microblock,
    Screen,
    build_kernel,
)
from .baseline import BaselineSystem
from .hw import HardwareSpec, prototype_spec
from .policy import (
    POLICY_DOMAINS,
    PolicySpec,
    build_policy,
    policy_names,
    register_policy,
)
from .platform import (
    ClusterConfig,
    FaultSpec,
    PlatformBuilder,
    PlatformConfig,
)
from .workloads import (
    heterogeneous_workload,
    homogeneous_workload,
    realworld_workload,
    synthetic_kernel,
)
from .serve import (
    ServingReport,
    ServingScenario,
    ServingSession,
    TenantSpec,
    run_serving,
)
from .cluster import ClusterReport, ClusterSession, run_cluster
from .obs import (
    MetricsBus,
    MetricsTimeline,
    ObsConfig,
    Tracer,
    to_chrome_trace,
    write_chrome_trace,
)

__version__ = "1.0.0"

__all__ = [
    "ExecutionReport",
    "FlashAbacusAccelerator",
    "Kernel",
    "Microblock",
    "Screen",
    "build_kernel",
    "BaselineSystem",
    "HardwareSpec",
    "prototype_spec",
    "POLICY_DOMAINS",
    "PolicySpec",
    "build_policy",
    "policy_names",
    "register_policy",
    "ClusterConfig",
    "FaultSpec",
    "PlatformBuilder",
    "PlatformConfig",
    "heterogeneous_workload",
    "homogeneous_workload",
    "realworld_workload",
    "synthetic_kernel",
    "ServingReport",
    "ServingScenario",
    "ServingSession",
    "TenantSpec",
    "run_serving",
    "ClusterReport",
    "ClusterSession",
    "run_cluster",
    "MetricsBus",
    "MetricsTimeline",
    "ObsConfig",
    "Tracer",
    "to_chrome_trace",
    "write_chrome_trace",
    "__version__",
]
