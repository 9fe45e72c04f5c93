"""Motivation study: the Figure 3 sensitivity analyses.

* Fig. 3b — throughput of a low-power accelerator as the serialized
  fraction of kernel executions grows (0%..50%) and the core count varies
  (1..8).
* Fig. 3c — the corresponding processor utilization.
* Fig. 3d — per-workload execution-time breakdown of the conventional
  heterogeneous system into accelerator / SSD / host-storage-stack time.
* Fig. 3e — the corresponding energy breakdown.

The serial-fraction sweeps run synthetic kernels on a FlashAbacus-style
multicore with the out-of-order scheduler but *without* counting storage
time (the study isolates compute scalability, as in the paper); the
breakdowns run the Table 2 workloads through the full SIMD baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..workloads.characteristics import MOTIVATION_ORDER, POLYBENCH
from ..workloads.generator import serial_sweep_kernels
from ..workloads.polybench import build_workload_kernel
from ..baseline.system import BaselineSystem
from ..platform.config import PlatformConfig
from .runner import run_system

#: Serial fractions swept by Figs. 3b/3c.
SERIAL_FRACTIONS: List[float] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]

#: Core counts swept by Figs. 3b/3c.
CORE_COUNTS: List[int] = list(range(1, 9))


@dataclass
class SerialSweepPoint:
    """One (cores, serial fraction) point of the Fig. 3b/3c sweep."""

    cores: int
    serial_fraction: float
    throughput_gb_per_s: float
    utilization_pct: float


def serial_fraction_sweep(cores_list: Sequence[int] = CORE_COUNTS,
                          serial_fractions: Sequence[float] = SERIAL_FRACTIONS,
                          instances: int = 2,
                          instructions_per_instance: float = 4e9,
                          bytes_per_kilo_instruction: float = 140.0
                          ) -> List[SerialSweepPoint]:
    """Run the Fig. 3b/3c sweep and return one point per configuration.

    The sweep isolates *compute* scalability: the kernels operate on
    memory-resident data (no storage accesses), and throughput is reported
    as the paper does — the volume of data the kernel logically processes
    (instructions x B/KI) divided by the makespan — so the 8-core,
    0%-serial point lands in the multi-GB/s region of Figure 3b.
    """
    data_bytes_per_instance = (instructions_per_instance
                               * bytes_per_kilo_instruction / 1000.0)
    points: List[SerialSweepPoint] = []
    for cores in cores_list:
        # Keep the two management LWPs out of the worker pool, as in the
        # real platform.
        config = PlatformConfig(system="IntraO3", lwp_count=cores + 2)
        for fraction in serial_fractions:
            kernels = serial_sweep_kernels(
                serial_fraction=fraction,
                instances=instances,
                parallel_screens=max(1, cores),
                instructions_per_instance=instructions_per_instance,
                input_bytes=0,
            )
            report = run_system(config, kernels, f"serial-{fraction}")
            data_bytes = instances * data_bytes_per_instance
            throughput = data_bytes / report.makespan_s if report.makespan_s else 0.0
            points.append(SerialSweepPoint(
                cores=cores,
                serial_fraction=fraction,
                throughput_gb_per_s=throughput / (1024 ** 3),
                utilization_pct=report.worker_utilization * 100.0,
            ))
    return points


@dataclass
class BreakdownRow:
    """Per-workload execution-time and energy decomposition (Fig. 3d/3e)."""

    workload: str
    accelerator_fraction: float
    ssd_fraction: float
    host_stack_fraction: float
    energy_accelerator_fraction: float
    energy_ssd_fraction: float
    energy_host_stack_fraction: float


def baseline_breakdown(workloads: Sequence[str] = tuple(MOTIVATION_ORDER),
                       instances: int = 1,
                       input_scale: float = 1.0) -> List[BreakdownRow]:
    """Run PolyBench kernels through the SIMD baseline and decompose them.

    Time fractions follow the paper's Fig. 3d categories (accelerator, SSD,
    host storage stack); the energy fractions map the accountant's buckets
    onto the same three categories (computation -> accelerator,
    storage_access -> SSD, data_movement -> host storage stack).
    """
    rows: List[BreakdownRow] = []
    for name in workloads:
        characteristics = POLYBENCH[name]
        system = BaselineSystem()
        kernels = [build_workload_kernel(characteristics, app_id=0, instance=i,
                                         input_scale=input_scale)
                   for i in range(instances)]
        system.run_workload(kernels, name)
        time_parts = {"accelerator": 0.0, "ssd": 0.0, "host_stack": 0.0}
        for breakdown in system.time_breakdowns():
            time_parts["accelerator"] += breakdown.accelerator_s
            time_parts["ssd"] += breakdown.ssd_s
            time_parts["host_stack"] += breakdown.host_stack_s
        total_time = sum(time_parts.values()) or 1.0
        energy = system.energy_breakdown()
        system.env.close()
        total_energy = energy.total or 1.0
        rows.append(BreakdownRow(
            workload=name,
            accelerator_fraction=time_parts["accelerator"] / total_time,
            ssd_fraction=time_parts["ssd"] / total_time,
            host_stack_fraction=time_parts["host_stack"] / total_time,
            energy_accelerator_fraction=energy.computation / total_energy,
            energy_ssd_fraction=energy.storage_access / total_energy,
            energy_host_stack_fraction=energy.data_movement / total_energy,
        ))
    return rows
