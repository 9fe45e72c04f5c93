"""Heterogeneous workload mixes MX1..MX14 (right side of Table 2).

Each mix combines six PolyBench applications; the evaluation offloads four
instances of every kernel in the mix (24 kernels per execution).  The
compositions below transcribe the bullet matrix on the right-hand side of
Table 2.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.app import Application
from ..core.kernel import Kernel
from .polybench import DEFAULT_SCREENS_PER_MICROBLOCK, polybench_application

#: Which applications participate in each mix (Table 2, columns 1-14).
MIX_COMPOSITIONS: Dict[str, List[str]] = {
    "MX1": ["ATAX", "BICG", "2DCON", "MVT", "ADI", "FDTD"],
    "MX2": ["ATAX", "MVT", "ADI", "GESUM", "SYRK", "GEMM"],
    "MX3": ["BICG", "MVT", "FDTD", "GESUM", "3MM", "2MM"],
    "MX4": ["2DCON", "MVT", "ADI", "SYRK", "COVAR", "GEMM"],
    "MX5": ["ATAX", "BICG", "ADI", "FDTD", "GESUM", "CORR"],
    "MX6": ["2DCON", "MVT", "GESUM", "SYRK", "3MM", "SYR2K"],
    "MX7": ["MVT", "ADI", "FDTD", "COVAR", "GEMM", "2MM"],
    "MX8": ["ATAX", "2DCON", "MVT", "ADI", "GESUM", "COVAR"],
    "MX9": ["BICG", "MVT", "FDTD", "SYRK", "GEMM", "SYR2K"],
    "MX10": ["2DCON", "ADI", "GESUM", "3MM", "2MM", "CORR"],
    "MX11": ["ATAX", "MVT", "FDTD", "COVAR", "GEMM", "2MM"],
    "MX12": ["BICG", "ADI", "GESUM", "SYRK", "2MM", "CORR"],
    "MX13": ["2DCON", "MVT", "FDTD", "3MM", "GEMM", "SYR2K"],
    "MX14": ["ATAX", "BICG", "ADI", "COVAR", "2MM", "CORR"],
}

MIX_ORDER: List[str] = [f"MX{i}" for i in range(1, 15)]

#: Instances per kernel used for every heterogeneous execution (Section 5.1).
INSTANCES_PER_KERNEL = 4


def mix_applications(mix_name: str,
                     screens_per_microblock: int = DEFAULT_SCREENS_PER_MICROBLOCK,
                     input_scale: float = 1.0) -> List[Application]:
    """The applications composing ``mix_name``, with distinct app ids."""
    try:
        names = MIX_COMPOSITIONS[mix_name]
    except KeyError:
        raise KeyError(f"unknown mix {mix_name!r}; choose from {MIX_ORDER}") \
            from None
    return [polybench_application(name, app_id=i,
                                  screens_per_microblock=screens_per_microblock,
                                  input_scale=input_scale)
            for i, name in enumerate(names)]


def heterogeneous_workload(mix_name: str,
                           instances_per_kernel: int = INSTANCES_PER_KERNEL,
                           screens_per_microblock: int = DEFAULT_SCREENS_PER_MICROBLOCK,
                           input_scale: float = 1.0) -> List[Kernel]:
    """All kernel instances of one mix, interleaved across applications.

    Kernels are interleaved (app0 inst0, app1 inst0, ..., app0 inst1, ...)
    so that dynamic schedulers see a realistic arrival mixture rather than
    long runs of identical kernels.
    """
    apps = mix_applications(mix_name, screens_per_microblock, input_scale)
    per_app = [app.instantiate(instances_per_kernel) for app in apps]
    kernels: List[Kernel] = []
    for round_index in range(instances_per_kernel):
        for app_kernels in per_app:
            kernels.append(app_kernels[round_index])
    return kernels
