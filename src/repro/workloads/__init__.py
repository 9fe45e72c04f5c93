"""Benchmark workloads: PolyBench (Table 2), Rodinia/Mars, mixes, synthetic."""

from .characteristics import (
    COMPUTE_INTENSIVE,
    DATA_INTENSIVE,
    MOTIVATION_ORDER,
    POLYBENCH,
    POLYBENCH_ORDER,
    REALWORLD,
    REALWORLD_ORDER,
    WorkloadCharacteristics,
    lookup,
    table2_rows,
)
from .polybench import (
    DEFAULT_SCREENS_PER_MICROBLOCK,
    build_workload_kernel,
    homogeneous_workload,
    polybench_application,
)
from .rodinia import realworld_application, realworld_workload
from .mixes import (
    INSTANCES_PER_KERNEL,
    MIX_COMPOSITIONS,
    MIX_ORDER,
    heterogeneous_workload,
    mix_applications,
)
from .generator import serial_sweep_kernels, synthetic_kernel

__all__ = [
    "COMPUTE_INTENSIVE",
    "DATA_INTENSIVE",
    "MOTIVATION_ORDER",
    "POLYBENCH",
    "POLYBENCH_ORDER",
    "REALWORLD",
    "REALWORLD_ORDER",
    "WorkloadCharacteristics",
    "lookup",
    "table2_rows",
    "DEFAULT_SCREENS_PER_MICROBLOCK",
    "build_workload_kernel",
    "homogeneous_workload",
    "polybench_application",
    "realworld_application",
    "realworld_workload",
    "INSTANCES_PER_KERNEL",
    "MIX_COMPOSITIONS",
    "MIX_ORDER",
    "heterogeneous_workload",
    "mix_applications",
    "serial_sweep_kernels",
    "synthetic_kernel",
]
