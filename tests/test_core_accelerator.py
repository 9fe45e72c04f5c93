"""Integration tests for the FlashAbacus accelerator and its execution engine."""

from collections import Counter

import pytest

from repro.core import FlashAbacusAccelerator
from repro.core.accelerator import FlashAddressSpace
from repro.eval import run_system
from repro.platform import PlatformConfig
from repro.workloads import heterogeneous_workload, homogeneous_workload

from helpers import spy

SCALE = 0.02   # shrink the Table 2 data sets; ratios are scale-invariant


# --------------------------------------------------------------------------- #
# FlashAddressSpace                                                            #
# --------------------------------------------------------------------------- #
def test_address_space_shares_input_regions_per_app():
    space = FlashAddressSpace(capacity_bytes=1 << 30, alignment=65536)
    a1 = space.input_region("ATAX:0", 1 << 20)
    a2 = space.input_region("ATAX:0", 1 << 20)
    b = space.input_region("BICG:1", 1 << 20)
    assert a1 == a2
    assert b != a1


def test_address_space_output_regions_are_distinct_and_aligned():
    space = FlashAddressSpace(capacity_bytes=1 << 30, alignment=65536)
    first = space.output_region(100)
    second = space.output_region(100)
    assert first != second
    assert first % 65536 == 0 and second % 65536 == 0


def test_address_space_wraps_instead_of_overflowing():
    space = FlashAddressSpace(capacity_bytes=4 * 65536, alignment=65536)
    regions = [space.output_region(65536) for _ in range(6)]
    assert all(r < 4 * 65536 for r in regions)


def test_address_space_wrap_restarts_at_zero():
    align = 65536
    space = FlashAddressSpace(capacity_bytes=4 * align, alignment=align)
    first = [space.output_region(align) for _ in range(4)]
    assert first == [0, align, 2 * align, 3 * align]
    # The fifth allocation does not fit: the cursor wraps to the base and
    # the logical space is reused from the start.
    assert space.output_region(align) == 0
    assert space.output_region(align) == align


def test_address_space_wrap_overwrites_old_mappings():
    """After a wrap, new regions silently alias previously handed-out ones."""
    align = 65536
    space = FlashAddressSpace(capacity_bytes=2 * align, alignment=align)
    input_base = space.input_region("ATAX:0", align)
    assert input_base == 0
    space.output_region(align)          # fills the second (last) slot
    overwritten = space.output_region(align)   # wraps onto the input region
    assert overwritten == input_base
    # The input mapping is NOT invalidated: the registry still hands out
    # the now-aliased base address.  This documents the bounded-backbone
    # reuse semantics the accelerator relies on for oversized workloads.
    assert space.input_region("ATAX:0", align) == input_base


def test_address_space_wrap_respects_alignment_rounding():
    align = 65536
    space = FlashAddressSpace(capacity_bytes=3 * align, alignment=align)
    # A sub-alignment request still consumes one aligned slot.
    assert space.output_region(1) == 0
    assert space.output_region(align + 1) == align   # rounds up to 2 slots
    # Next request does not fit in the remaining 0 bytes: wrap to base.
    assert space.output_region(align) == 0


# --------------------------------------------------------------------------- #
# End-to-end execution                                                         #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("scheduler", ["InterSt", "InterDy", "IntraIo", "IntraO3"])
def test_every_scheduler_completes_all_kernels(scheduler):
    kernels = homogeneous_workload("ATAX", instances=3, input_scale=SCALE)
    report = run_system(PlatformConfig(system=scheduler), kernels, "ATAX")
    assert report.system == scheduler
    assert len(report.kernel_latencies) == len(kernels)
    assert len(report.completion_times) == len(kernels)
    assert report.makespan_s > 0
    assert report.throughput_mb_per_s > 0
    assert report.energy_joules > 0
    assert 0 < report.worker_utilization <= 1.0


def test_report_bytes_processed_matches_workload():
    kernels = homogeneous_workload("MVT", instances=2, input_scale=SCALE)
    expected = sum(k.input_bytes + k.output_bytes for k in kernels)
    report = run_system(PlatformConfig(system="InterDy"), kernels, "MVT")
    assert report.bytes_processed == expected


def test_completion_times_monotonic_and_bounded_by_makespan():
    kernels = homogeneous_workload("BICG", instances=4, input_scale=SCALE)
    report = run_system(PlatformConfig(system="IntraO3"), kernels, "BICG")
    times = report.completion_times
    assert times == sorted(times)
    assert times[-1] == pytest.approx(report.makespan_s)
    assert all(lat <= report.makespan_s + 1e-9
               for lat in report.kernel_latencies)


def test_flash_traffic_covers_inputs_and_outputs():
    accelerator = FlashAbacusAccelerator(config=PlatformConfig(system="InterDy"))
    kernels = homogeneous_workload("2DCON", instances=2, input_scale=SCALE)
    report = accelerator.run_workload(kernels, "2DCON")
    total_input = sum(k.input_bytes for k in kernels)
    total_output = sum(k.output_bytes for k in kernels)
    assert accelerator.backbone.bytes_read() >= total_input
    # Outputs are flushed (possibly after the makespan) by Storengine.
    assert accelerator.flashvisor.pending_flush_bytes == 0
    assert accelerator.backbone.bytes_written() >= total_output
    assert report.scheduler_stats["screens_executed"] == \
        sum(len(mb) for k in kernels for mb in k.microblocks)


def test_dynamic_scheduler_balances_instances_across_workers():
    kernels = homogeneous_workload("GESUM", instances=6, input_scale=SCALE)
    report = run_system(PlatformConfig(system="InterDy"), kernels, "GESUM")
    busy = [u for u in report.per_lwp_utilization if u > 0.1]
    assert len(busy) == 6


def test_static_scheduler_uses_single_worker_for_one_app():
    kernels = homogeneous_workload("GESUM", instances=4, input_scale=SCALE)
    report = run_system(PlatformConfig(system="InterSt"), kernels, "GESUM")
    busy = [u for u in report.per_lwp_utilization if u > 0.1]
    assert len(busy) == 1


def test_out_of_order_beats_in_order_for_serial_microblock_workloads():
    in_order = run_system(
        PlatformConfig(system="IntraIo"),
        homogeneous_workload("ATAX", instances=6, input_scale=SCALE), "ATAX")
    out_of_order = run_system(
        PlatformConfig(system="IntraO3"),
        homogeneous_workload("ATAX", instances=6, input_scale=SCALE), "ATAX")
    assert out_of_order.makespan_s < in_order.makespan_s


def test_heterogeneous_mix_runs_on_all_schedulers():
    for scheduler in ("InterSt", "InterDy", "IntraIo", "IntraO3"):
        kernels = heterogeneous_workload("MX2", instances_per_kernel=1,
                                         input_scale=SCALE)
        report = run_system(PlatformConfig(system=scheduler), kernels, "MX2")
        assert len(report.completion_times) == len(kernels)


def test_power_series_collected_when_requested():
    kernels = homogeneous_workload("MVT", instances=2, input_scale=SCALE)
    report = run_system(
        PlatformConfig(system="IntraO3", track_power_series=True), kernels,
        "MVT")
    assert report.power_series is not None
    assert len(report.power_series) > 2
    assert max(report.power_series.values()) > 0


def test_empty_workload_rejected():
    accelerator = FlashAbacusAccelerator()
    with pytest.raises(ValueError):
        accelerator.run_workload([], "empty")


def test_management_cores_never_execute_screens():
    accelerator = FlashAbacusAccelerator()
    kernels = homogeneous_workload("ATAX", instances=2, input_scale=SCALE)
    executed = Counter()
    spy(accelerator, "_execute_screen",
        lambda _, lwp, *units: executed.update((lwp.lwp_id,)))
    accelerator.run_workload(kernels, "ATAX")
    cluster = accelerator.cluster
    assert set(executed) <= {worker.lwp_id for worker in cluster.workers}
    assert cluster.flashvisor_lwp.lwp_id not in executed
    assert cluster.storengine_lwp.lwp_id not in executed
    assert sum(executed.values()) \
        == sum(len(mb) for k in kernels for mb in k.microblocks)
