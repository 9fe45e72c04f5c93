"""Unit tests for flash geometry, dies, channels, controllers and the backbone."""

import pytest

from repro.flash import (
    FlashBackbone,
    FlashChannel,
    FlashController,
    FlashGeometry,
    PhysicalPageAddress,
)
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


def test_group_expansion_covers_every_channel_and_plane(spec):
    geometry = FlashGeometry(spec.flash)
    pages = geometry.group_to_physical_pages(12345)
    assert len(pages) == geometry.pages_per_group
    channels = {p.channel for p in pages}
    planes = {p.plane for p in pages}
    assert channels == set(range(spec.flash.channels))
    assert planes == set(range(spec.flash.planes_per_die))
    # All pages of a group live at the same block/page offset.
    assert len({(p.block, p.page) for p in pages}) == 1


def test_group_expansion_out_of_range(spec):
    geometry = FlashGeometry(spec.flash)
    with pytest.raises(ValueError):
        geometry.group_to_physical_pages(geometry.page_groups_total)


def test_distinct_groups_map_to_distinct_pages(spec):
    geometry = FlashGeometry(spec.flash)
    seen = set()
    for group in (0, 1, 2, 255, 256, 1000):
        for page in geometry.group_to_physical_pages(group):
            assert page not in seen
            seen.add(page)


# --------------------------------------------------------------------------- #
# Channel / die timing                                                         #
# --------------------------------------------------------------------------- #
def test_page_read_takes_sense_plus_transfer(env, spec):
    channel = FlashChannel(env, spec.flash, 0)

    def reader(env):
        yield from channel.read_page(package=0, die=0)

    run_process(env, reader(env))
    expected = (spec.flash.page_read_latency_s
                + spec.flash.page_bytes / spec.flash.channel_bus_bandwidth)
    assert env.now == pytest.approx(expected)
    assert channel.bytes_read == spec.flash.page_bytes


def test_program_is_much_slower_than_read(env, spec):
    channel = FlashChannel(env, spec.flash, 0)

    def writer(env):
        yield from channel.program_page(package=0, die=0)

    run_process(env, writer(env))
    assert env.now > spec.flash.page_program_latency_s
    assert env.now < spec.flash.page_program_latency_s * 1.1


def test_reads_on_different_dies_overlap_senses(env, spec):
    channel = FlashChannel(env, spec.flash, 0)

    def reader(env, package):
        yield from channel.read_page(package=package, die=0)

    env.process(reader(env, 0))
    env.process(reader(env, 1))
    env.run()
    # Two senses overlapping: total time well below two serialized reads.
    serialized = 2 * (spec.flash.page_read_latency_s
                      + spec.flash.page_bytes / spec.flash.channel_bus_bandwidth)
    assert env.now < serialized * 0.75


def test_reads_on_same_die_serialize(env, spec):
    channel = FlashChannel(env, spec.flash, 0)

    def reader(env):
        yield from channel.read_page(package=0, die=0)

    env.process(reader(env))
    env.process(reader(env))
    env.run()
    assert env.now >= 2 * spec.flash.page_read_latency_s


# --------------------------------------------------------------------------- #
# Controller tag queues                                                        #
# --------------------------------------------------------------------------- #
def test_controller_executes_submitted_transactions(env, spec):
    channel = FlashChannel(env, spec.flash, 0)
    controller = FlashController(env, spec.flash, channel)

    def submitter(env):
        txn = yield from controller.submit(
            "read", PhysicalPageAddress(0, 0, 0, 0, 0, 0))
        yield txn.done
        return txn

    txn = run_process(env, submitter(env))
    assert txn.completed_at is not None
    assert txn.completed_at > txn.issued_at


def test_controller_rejects_unknown_op(env, spec):
    channel = FlashChannel(env, spec.flash, 0)
    controller = FlashController(env, spec.flash, channel)

    def submitter(env):
        yield from controller.submit("trim",
                                     PhysicalPageAddress(0, 0, 0, 0, 0, 0))

    proc = env.process(submitter(env))
    env.run()
    assert not proc.ok
    assert isinstance(proc.value, ValueError)


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
    assert backbone.block_erases == 1
    assert env.now >= spec.flash.block_erase_latency_s
