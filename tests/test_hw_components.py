"""Unit tests for the hardware substrate: spec, LWP, memory, interconnect, PCIe."""

import pytest

from repro.hw import (
    CapacityError,
    DDR3L,
    EnergyAccountant,
    LWP,
    LWPCluster,
    PCIeLink,
    PowerMonitor,
    Scratchpad,
    GB,
    KB,
    MB,
)
from repro.core import FlashAbacusAccelerator
from repro.flash import FlashGeometry
from repro.platform import PlatformConfig

from helpers import run_process


# --------------------------------------------------------------------------- #
# Specification (Table 1)                                                      #
# --------------------------------------------------------------------------- #
def test_table1_lwp_row(spec):
    assert spec.lwp.count == 8
    assert spec.lwp.frequency_hz == pytest.approx(1e9)
    assert spec.lwp.power_per_core_w == pytest.approx(0.8)
    assert spec.lwp.functional_units == 8
    assert spec.lwp.multiply_units == 2
    assert spec.lwp.general_units == 4
    assert spec.lwp.load_store_units == 2


def test_table1_memory_rows(spec):
    assert spec.memory.ddr_capacity_bytes == 1 * GB
    assert spec.memory.ddr_bandwidth == pytest.approx(6.4 * GB)
    assert spec.memory.scratchpad_capacity_bytes == 4 * MB
    assert spec.memory.scratchpad_banks == 8


def test_table1_flash_capacity_is_32gb(spec):
    assert spec.flash.total_dies == 32
    assert spec.flash.capacity_bytes == 32 * GB
    assert spec.flash.page_bytes == 8 * KB
    # 4 channels * 2 planes * 8KB = 64KB page group (Section 4.3).
    assert FlashGeometry(spec.flash).page_group_bytes == 64 * KB


def test_table1_page_latencies(spec):
    assert spec.flash.page_read_latency_s == pytest.approx(81e-6)
    assert spec.flash.page_program_latency_s == pytest.approx(2.6e-3)


def test_table1_rows_render(spec):
    rows = spec.table1_rows()
    names = [row[0] for row in rows]
    assert names == ["LWP", "L1/L2 cache", "Scratchpad", "Memory", "SSD",
                     "PCIe", "Tier-1 crossbar", "Tier-2 crossbar"]
    ssd_row = dict(zip(names, rows))["SSD"]
    assert "32GB" in ssd_row[1]


# --------------------------------------------------------------------------- #
# LWP timing model                                                             #
# --------------------------------------------------------------------------- #
def test_lwp_estimate_scales_with_instructions(env, spec):
    lwp = LWP(env, spec.lwp, 0)
    small = lwp.estimate(1e6, load_store_fraction=0.3)
    large = lwp.estimate(2e6, load_store_fraction=0.3)
    assert large.seconds == pytest.approx(2 * small.seconds)


def test_lwp_estimate_ld_st_heavy_code_is_slower(env, spec):
    lwp = LWP(env, spec.lwp, 0)
    balanced = lwp.estimate(1e9, load_store_fraction=0.3)
    memory_bound = lwp.estimate(1e9, load_store_fraction=0.9)
    assert memory_bound.seconds > balanced.seconds


def test_lwp_estimate_rejects_bad_inputs(env, spec):
    lwp = LWP(env, spec.lwp, 0)
    with pytest.raises(ValueError):
        lwp.estimate(-1)
    with pytest.raises(ValueError):
        lwp.estimate(1, load_store_fraction=1.5)
    with pytest.raises(ValueError):
        lwp.estimate(1, parallelism=0)


def test_lwp_compute_occupies_core_and_charges_energy(env, spec):
    energy = EnergyAccountant()
    lwp = LWP(env, spec.lwp, 3, energy=energy)
    est = run_process(env, lwp.compute(4e9, load_store_fraction=0.3))
    assert env.now == pytest.approx(est.seconds)
    assert lwp.busy_time() == pytest.approx(est.seconds)
    assert lwp.utilization() == pytest.approx(1.0)
    expected_joules = spec.lwp.power_per_core_w * est.seconds
    assert energy.by_component["lwp3"] == pytest.approx(expected_joules)
    assert energy.breakdown.computation == pytest.approx(expected_joules)


def test_lwp_utilization_with_idle_time(env, spec):
    lwp = LWP(env, spec.lwp, 0)

    def busy_then_idle(env):
        yield from lwp.busy_for(2.0)
        yield env.timeout(2.0)

    run_process(env, busy_then_idle(env))
    assert lwp.utilization() == pytest.approx(0.5)


def test_cluster_reserves_flashvisor_and_storengine(env, spec):
    energy = EnergyAccountant()
    cluster = LWPCluster(env, spec.lwp, energy)
    assert len(cluster) == 8
    assert cluster.flashvisor_lwp is not None
    assert cluster.storengine_lwp is not None
    assert len(cluster.workers) == 6
    roles = {lwp.role for lwp in cluster}
    assert roles == {"flashvisor", "storengine", "worker"}


def test_cluster_without_reserved_cores_all_workers(env, spec):
    cluster = LWPCluster(env, spec.lwp, reserve_management_cores=False)
    assert len(cluster.workers) == 8
    assert cluster.flashvisor_lwp is None


def test_cluster_activity_tracks_functional_units(env, spec):
    # A power monitor is what the platform passes under
    # track_power_series, and it turns the Fig. 15a series on too.
    recorded = LWPCluster(env, spec.lwp, power_monitor=PowerMonitor(env))
    plain = LWPCluster(env, spec.lwp)

    def run(env):
        yield from recorded.workers[0].compute(1e9, load_store_fraction=0.3)
        yield from plain.workers[0].compute(1e9, load_store_fraction=0.3)

    run_process(env, run(env))
    for cluster in (recorded, plain):
        assert cluster.activity.stat.value == 0
        assert cluster.activity.mean() > 0
    assert len(recorded.activity.series) >= 3
    assert plain.activity.series is None


# --------------------------------------------------------------------------- #
# Memory devices                                                               #
# --------------------------------------------------------------------------- #
def test_ddr_allocation_and_capacity(env, spec):
    ddr = DDR3L(env, spec.memory)
    ddr.allocate("input", 512 * MB)
    assert ddr.allocated_bytes == 512 * MB
    assert ddr.free_bytes == spec.memory.ddr_capacity_bytes - 512 * MB
    with pytest.raises(CapacityError):
        ddr.allocate("too_big", 600 * MB)


def test_ddr_timed_read_write(env, spec):
    ddr = DDR3L(env, spec.memory)

    def mover(env):
        yield from ddr.write(64 * MB)
        yield from ddr.read(64 * MB)

    run_process(env, mover(env))
    expected = 2 * (spec.memory.ddr_latency_s
                    + 64 * MB / spec.memory.ddr_bandwidth)
    assert env.now == pytest.approx(expected)
    assert ddr.bytes_written == 64 * MB
    assert ddr.bytes_read == 64 * MB


def test_scratchpad_is_faster_than_ddr(env, spec):
    ddr = DDR3L(env, spec.memory)
    scratchpad = Scratchpad(env, spec.memory)
    assert scratchpad.pipe.occupancy_time(1 * MB) \
        < ddr.pipe.occupancy_time(1 * MB)


# --------------------------------------------------------------------------- #
# Interconnect (Table 1)                                                       #
# --------------------------------------------------------------------------- #
def test_crossbar_tiers_have_expected_relative_bandwidth(spec):
    assert spec.interconnect.tier1_bandwidth > spec.interconnect.tier2_bandwidth
    assert spec.interconnect.tier1_latency_s <= spec.interconnect.tier2_latency_s


def test_message_queue_latency_applied(spec):
    # Flashvisor charges each mapping request the Table 1 queue latency.
    accelerator = FlashAbacusAccelerator(
        config=PlatformConfig(system="IntraO3"))
    assert accelerator.flashvisor.message_latency_s \
        == spec.interconnect.message_queue_latency_s > 0


# --------------------------------------------------------------------------- #
# PCIe                                                                         #
# --------------------------------------------------------------------------- #
def test_pcie_transfer_time_and_energy(env, spec):
    energy = EnergyAccountant()
    pcie = PCIeLink(env, spec.pcie, energy)

    def mover(env):
        yield from pcie.transfer(512 * MB)

    run_process(env, mover(env))
    expected = spec.pcie.latency_s + 512 * MB / spec.pcie.bandwidth
    assert env.now == pytest.approx(expected)
    assert pcie.pipe.bytes_moved == 512 * MB
    assert energy.breakdown.data_movement > 0


def test_pcie_interrupt_takes_the_link_latency(env, spec):
    pcie = PCIeLink(env, spec.pcie)

    def irq(env):
        yield from pcie.interrupt()

    run_process(env, irq(env))
    assert env.now == spec.pcie.latency_s
    assert pcie.pipe.bytes_moved == 0
