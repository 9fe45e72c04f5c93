"""Unit tests for flash geometry and the backbone's timing."""

import pytest

from repro.flash import FlashBackbone, FlashGeometry
from repro.hw import EnergyAccountant

from helpers import run_process


# --------------------------------------------------------------------------- #
# Geometry                                                                     #
# --------------------------------------------------------------------------- #
def test_geometry_matches_prototype(spec):
    geometry = FlashGeometry(spec.flash)
    assert geometry.dies_total == 32
    assert geometry.capacity_bytes == 32 * 1024 ** 3
    assert geometry.pages_per_group == 8
    assert geometry.page_group_bytes == 64 * 1024
    assert geometry.page_groups_total == geometry.pages_total // 8


def test_geometry_bytes_to_groups_rounds_up(spec):
    geometry = FlashGeometry(spec.flash)
    assert geometry.bytes_to_page_groups(0) == 0
    assert geometry.bytes_to_page_groups(1) == 1
    assert geometry.bytes_to_page_groups(64 * 1024) == 1
    assert geometry.bytes_to_page_groups(64 * 1024 + 1) == 2
    with pytest.raises(ValueError):
        geometry.bytes_to_page_groups(-1)


def test_geometry_word_address_mapping(spec):
    geometry = FlashGeometry(spec.flash)
    assert geometry.word_address_to_group(0) == 0
    # One page group is 64 KB = 16384 words of 4 bytes.
    assert geometry.word_address_to_group(16384) == 1
    with pytest.raises(ValueError):
        geometry.word_address_to_group(-1)
    with pytest.raises(ValueError):
        geometry.word_address_to_group(geometry.capacity_bytes)


# --------------------------------------------------------------------------- #
# Page-group timing                                                            #
# --------------------------------------------------------------------------- #
def test_page_read_takes_sense_plus_transfer(env, spec):
    backbone = FlashBackbone(env, spec.flash)
    run_process(env, backbone.read_page_group(0))
    # Every channel senses and transfers its page of each plane in turn.
    per_page = (spec.flash.page_read_latency_s
                + spec.flash.page_bytes / spec.flash.channel_bus_bandwidth)
    assert env.now == pytest.approx(spec.flash.planes_per_die * per_page)
    assert backbone.bytes_read() == backbone.geometry.page_group_bytes


def test_program_is_much_slower_than_read(env, spec):
    backbone = FlashBackbone(env, spec.flash)
    run_process(env, backbone.program_page_group(0))
    programs = spec.flash.planes_per_die * spec.flash.page_program_latency_s
    assert env.now > programs
    assert env.now < programs * 1.1


#: (start, end) of a group read, a group program and a row erase issued
#: back to back from 1 ms, and the storage energy they charge, as the
#: per-page model (a controller serving its channel's pages one at a
#: time, a shared bus, a die per package) timed them.
SERIALIZED_CONTROLLER = {
    "prototype": ([(0.001, 0.0011815312499999999),
                   (0.0011815312499999999, 0.0064010625000000005),
                   (0.0064010625000000005, 0.0099010625)],
                  0.061374968749999995, 0.00394528365011329),
    "tiny": ([(0.001, 0.00103953125),
              (0.00103953125, 0.0012590625000000002),
              (0.0012590625000000002, 0.0014590625000000003)],
             0.003512968750000002, 0.026772328121653477),
}


@pytest.mark.parametrize("which", sorted(SERIALIZED_CONTROLLER))
def test_page_group_operations_take_the_serialized_controller_time(
        env, spec, tiny_flash_spec, which):
    flash_spec = spec.flash if which == "prototype" else tiny_flash_spec
    energy = EnergyAccountant()
    backbone = FlashBackbone(env, flash_spec, energy)
    marks = []

    def ops(env):
        yield env.timeout(1e-3)
        for op in (backbone.read_page_group(3),
                   backbone.program_page_group(5),
                   backbone.erase_block_row(1)):
            start = env.now
            yield from op
            marks.append((start, env.now))

    run_process(env, ops(env))
    expected_marks, storage_j, bus_share = SERIALIZED_CONTROLLER[which]
    assert marks == expected_marks
    assert energy.breakdown.storage_access == storage_j
    group_bytes = backbone.geometry.page_group_bytes
    assert backbone.bytes_read() == group_bytes
    assert backbone.bytes_written() == group_bytes
    assert (backbone.page_group_reads, backbone.page_group_writes) == (1, 1)
    assert backbone.mean_channel_utilization() == pytest.approx(
        bus_share, rel=1e-12)


# --------------------------------------------------------------------------- #
# Backbone                                                                     #
# --------------------------------------------------------------------------- #
def test_backbone_page_group_read_fans_out_to_all_channels(env, spec):
    energy = EnergyAccountant()
    backbone = FlashBackbone(env, spec.flash, energy)

    def reader(env):
        yield from backbone.read_page_group(0)

    run_process(env, reader(env))
    assert backbone.page_group_reads == 1
    assert backbone.bytes_read() == backbone.geometry.page_group_bytes
    assert energy.breakdown.storage_access > 0
    # Both planes of a channel share a die, so two senses serialize: the
    # group read takes at least two sense times but far less than eight.
    assert env.now >= 2 * spec.flash.page_read_latency_s
    assert env.now < 4 * spec.flash.page_read_latency_s


def test_backbone_bulk_read_bandwidth_matches_table1(env, spec):
    backbone = FlashBackbone(env, spec.flash)
    num_bytes = 512 * 1024 * 1024

    def reader(env):
        yield from backbone.bulk_read(num_bytes)

    run_process(env, reader(env))
    effective = num_bytes / env.now
    # Table 1 estimates 3.2 GB/s for the flash backbone.
    assert effective == pytest.approx(3.2 * 1024 ** 3, rel=0.05)


def test_backbone_bulk_program_is_die_limited(env, spec):
    backbone = FlashBackbone(env, spec.flash)
    assert backbone.aggregate_program_bandwidth < backbone.aggregate_read_bandwidth

    def writer(env):
        yield from backbone.bulk_program(16 * 1024 * 1024)

    run_process(env, writer(env))
    assert backbone.bulk_bytes_written == 16 * 1024 * 1024


def test_backbone_bulk_zero_bytes_is_instant(env, spec):
    backbone = FlashBackbone(env, spec.flash)

    def noop(env):
        yield from backbone.bulk_read(0)
        yield from backbone.bulk_program(0)

    run_process(env, noop(env))
    assert env.now == 0.0


def test_backbone_bulk_rejects_negative(env, spec):
    backbone = FlashBackbone(env, spec.flash)
    with pytest.raises(ValueError):
        run_process(env, backbone.bulk_read(-1))
    with pytest.raises(ValueError):
        run_process(env, backbone.bulk_program(-1))


def test_backbone_concurrent_bulk_reads_share_bandwidth(env, spec):
    backbone = FlashBackbone(env, spec.flash)
    chunk = 256 * 1024 * 1024

    def reader(env):
        yield from backbone.bulk_read(chunk)

    env.process(reader(env))
    env.process(reader(env))
    env.run()
    # The unloaded time of one stream: access latency plus the bytes over
    # the backbone's aggregate read bandwidth.
    lone = (spec.flash.page_read_latency_s
            + chunk / backbone.aggregate_read_bandwidth)
    assert env.now == pytest.approx(2 * lone, rel=0.01)


def test_backbone_erase_block_row(env, spec):
    backbone = FlashBackbone(env, spec.flash)

    def eraser(env):
        yield from backbone.erase_block_row(0)

    run_process(env, eraser(env))
    # All channels erase their block of the stripe at once.
    assert env.now == spec.flash.block_erase_latency_s
