"""Unit and integration tests for the conventional (SIMD) baseline."""

import pytest

from repro.baseline import (
    BaselineSystem,
    HostCPU,
    HostStorageStack,
    IO_REQUEST_BYTES,
    NVMeSSD,
)
from repro.eval import run_system
from repro.hw.power import EnergyAccountant
from repro.platform import PlatformConfig
from repro.workloads import POLYBENCH, build_workload_kernel, homogeneous_workload

from helpers import run_process

SCALE = 0.02


# --------------------------------------------------------------------------- #
# NVMe SSD                                                                     #
# --------------------------------------------------------------------------- #
def test_ssd_read_time_includes_latency_and_bandwidth(env, spec):
    ssd = NVMeSSD(env, spec.ssd)
    expected = spec.ssd.read_latency_s + (64 << 20) / spec.ssd.read_bandwidth
    assert ssd.read_time(64 << 20) == pytest.approx(expected)


def test_ssd_writes_slower_than_reads(env, spec):
    ssd = NVMeSSD(env, spec.ssd)
    assert ssd.write_time(64 << 20) > ssd.read_time(64 << 20)


def test_ssd_tracks_traffic_and_energy(env, spec):
    energy = EnergyAccountant()
    ssd = NVMeSSD(env, spec.ssd, energy)

    def mover(env):
        yield from ssd.read(32 << 20)
        yield from ssd.write(8 << 20)

    run_process(env, mover(env))
    assert ssd.bytes_read == 32 << 20
    assert ssd.bytes_written == 8 << 20
    assert ssd.read_requests == 1 and ssd.write_requests == 1
    assert energy.breakdown.storage_access > 0
    assert energy.breakdown.computation == 0


# --------------------------------------------------------------------------- #
# Host storage stack                                                           #
# --------------------------------------------------------------------------- #
def test_stack_time_scales_with_request_count(env, spec):
    stack = HostStorageStack(env, spec.host)
    one_request = stack.stack_time(IO_REQUEST_BYTES)
    many_requests = stack.stack_time(10 * IO_REQUEST_BYTES)
    assert many_requests == pytest.approx(10 * one_request)


def test_stack_file_io_counts_copies_and_mode_switches(env, spec):
    energy = EnergyAccountant()
    stack = HostStorageStack(env, spec.host, energy)

    def io(env):
        yield from stack.file_io(4 * IO_REQUEST_BYTES)

    run_process(env, io(env))
    assert stack.stats.io_requests == 4
    assert stack.stats.copied_bytes == spec.host.copies_per_io * 4 * IO_REQUEST_BYTES
    assert stack.stats.mode_switches == 8
    assert energy.breakdown.storage_access > 0
    assert energy.breakdown.data_movement > 0


def test_host_cpu_idle_accounting(env, spec):
    energy = EnergyAccountant()
    host = HostCPU(env, spec.host, energy)
    host.charge_idle(2.0)
    # Idle CPU and DRAM power, both charged to data movement.
    assert energy.breakdown.data_movement == pytest.approx(
        2.0 * (spec.host.cpu_idle_power_w + spec.host.dram_power_w))
    assert energy.breakdown.total == energy.breakdown.data_movement
    with pytest.raises(ValueError):
        host.charge_idle(-1.0)


# --------------------------------------------------------------------------- #
# Full baseline system                                                         #
# --------------------------------------------------------------------------- #
def test_baseline_completes_every_kernel():
    kernels = homogeneous_workload("ATAX", instances=3, input_scale=SCALE)
    report = run_system(PlatformConfig(system="SIMD"), kernels, "ATAX")
    assert report.system == "SIMD"
    assert len(report.completion_times) == 3
    assert report.makespan_s > 0
    assert report.energy_joules > 0


def total_s(breakdown):
    """A kernel's time: accelerator, SSD and host storage stack."""
    return breakdown.accelerator_s + breakdown.ssd_s + breakdown.host_stack_s


def test_baseline_kernels_execute_serially():
    kernels = homogeneous_workload("MVT", instances=3, input_scale=SCALE)
    system = BaselineSystem()
    system.run_workload(kernels, "MVT")
    per_kernel = [total_s(b) for b in system.time_breakdowns()]
    # Serial execution: the makespan is (approximately) the sum of the
    # individual kernel times.
    assert sum(per_kernel) == pytest.approx(system.env.now, rel=0.05)


def test_baseline_moves_every_input_byte_over_pcie_and_ssd():
    kernels = homogeneous_workload("2DCON", instances=2, input_scale=SCALE)
    total_input = sum(k.input_bytes for k in kernels)
    total_output = sum(k.output_bytes for k in kernels)
    system = BaselineSystem()
    system.run_workload(kernels, "2DCON")
    assert system.ssd.bytes_read == total_input
    assert system.ssd.bytes_written == total_output
    assert system.pcie.pipe.bytes_moved == total_input + total_output


def test_baseline_data_intensive_kernels_dominated_by_storage_path():
    characteristics = POLYBENCH["ATAX"]
    system = BaselineSystem()
    kernels = [build_workload_kernel(characteristics, input_scale=0.1)]
    system.run_workload(kernels, "ATAX")
    breakdown = system.time_breakdowns()[0]
    io_s = breakdown.ssd_s + breakdown.host_stack_s
    assert io_s / total_s(breakdown) > 0.5


def test_baseline_compute_intensive_kernels_dominated_by_accelerator():
    characteristics = POLYBENCH["SYRK"]
    system = BaselineSystem()
    kernels = [build_workload_kernel(characteristics, input_scale=0.1)]
    system.run_workload(kernels, "SYRK")
    breakdown = system.time_breakdowns()[0]
    assert breakdown.accelerator_s / total_s(breakdown) > 0.5


def test_baseline_storage_energy_fraction_is_large_for_data_intensive():
    kernels = homogeneous_workload("BICG", instances=2, input_scale=SCALE)
    report = run_system(PlatformConfig(system="SIMD"), kernels, "BICG")
    energy = report.energy
    non_compute = energy.data_movement + energy.storage_access
    assert non_compute / energy.total > 0.6


def test_baseline_uses_all_eight_lwps_for_parallel_microblocks():
    kernels = homogeneous_workload("MVT", instances=1, input_scale=SCALE)
    system = BaselineSystem()
    system.run_workload(kernels, "MVT")
    busy = [w for w in system.cluster.workers if w.busy_time() > 0]
    assert len(busy) == 8


def test_baseline_empty_workload_rejected():
    system = BaselineSystem()
    with pytest.raises(ValueError):
        system.run_workload([], "empty")


def test_baseline_power_series_reflects_io_phases():
    kernels = homogeneous_workload("ATAX", instances=1, input_scale=SCALE)
    report = run_system(
        PlatformConfig(system="SIMD", track_power_series=True), kernels,
        "ATAX")
    assert report.power_series is not None
    peak = max(report.power_series.values())
    # During I/O the host (active) plus SSD dominate: tens of watts.
    assert peak > 50.0
