"""Unit tests for Flashvisor: translation, protection, and timed mapping."""

from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.flashvisor import Flashvisor
from repro.core.kernel import build_kernel
from repro.flash.backbone import FlashBackbone
from repro.flash.ftl import OutOfSpaceError
from repro.hw.interconnect import Interconnect
from repro.hw.lwp import LWPCluster
from repro.hw.memory import DDR3L, Scratchpad
from repro.hw.power import EnergyAccountant
from repro.sim import Environment

from helpers import run_process


def build_flashvisor(spec, flash_spec):
    env = Environment()
    energy = EnergyAccountant()
    cluster = LWPCluster(env, spec.lwp, energy)
    ddr = DDR3L(env, spec.memory, energy)
    scratchpad = Scratchpad(env, spec.memory, energy)
    interconnect = Interconnect(env, spec.interconnect)
    backbone = FlashBackbone(env, flash_spec, energy)
    flashvisor = Flashvisor(env, cluster.flashvisor_lwp, backbone, ddr,
                            scratchpad, interconnect.new_queue("fv"), energy)
    return env, flashvisor, backbone, energy


@pytest.fixture
def flashvisor_setup(spec):
    return build_flashvisor(spec, spec.flash)


def make_kernel(input_bytes=1024 * 1024, output_bytes=1024):
    return build_kernel("k", total_instructions=1e6, input_bytes=input_bytes,
                        output_bytes=output_bytes, microblock_count=1,
                        serial_microblocks=0, screens_per_microblock=1)


# --------------------------------------------------------------------------- #
# Pure translation logic                                                       #
# --------------------------------------------------------------------------- #
def test_translate_read_maps_unmapped_groups_on_first_use(flashvisor_setup):
    _env, flashvisor, _backbone, _energy = flashvisor_setup
    groups = flashvisor.translate_read(0, 256 * 1024)
    assert len(groups) == 4          # 256 KB / 64 KB page groups
    # Repeating the translation returns the same physical groups.
    assert flashvisor.translate_read(0, 256 * 1024) == groups


def test_translate_write_allocates_fresh_groups(flashvisor_setup):
    _env, flashvisor, _backbone, _energy = flashvisor_setup
    first = flashvisor.translate_write(0, 128 * 1024)
    second = flashvisor.translate_write(0, 128 * 1024)
    assert first != second           # log-structured: new physical groups
    # The mapping table now points at the second allocation.
    current = [flashvisor.mapping.lookup(g)
               for g in range(len(second))]
    assert current == second


def test_translation_counts_are_tracked(flashvisor_setup):
    _env, flashvisor, _backbone, _energy = flashvisor_setup
    flashvisor.translate_read(0, 64 * 1024)
    flashvisor.translate_write(16384, 64 * 1024)
    assert flashvisor.stats.translations == 2


def test_extent_past_the_backbone_is_rejected(flashvisor_setup):
    env, flashvisor, _backbone, _energy = flashvisor_setup
    geometry = flashvisor.geometry
    group_bytes = geometry.page_group_bytes
    last_word = ((geometry.page_groups_total - 1) * group_bytes
                 // flashvisor.word_bytes)
    for translate in (flashvisor.translate_read, flashvisor.translate_write):
        with pytest.raises(ValueError, match=f"{3 * group_bytes} bytes at "
                                             f"address {last_word}"):
            translate(last_word, 3 * group_bytes)
    assert len(flashvisor.mapping) == 0
    assert flashvisor.stats.translations == 0
    kernel = make_kernel()
    for map_section in (flashvisor.map_for_read, flashvisor.map_for_write):
        with pytest.raises(ValueError, match="runs past the backbone"):
            run_process(env, map_section(kernel, last_word, group_bytes + 1))
    assert len(flashvisor.range_lock) == 0
    assert env.now == 0.0
    # The last group on its own is still a valid section.
    assert len(flashvisor.translate_read(last_word, group_bytes)) == 1
    assert flashvisor.mapping.mapped_groups() == [
        geometry.page_groups_total - 1]


def test_mapping_table_fits_in_scratchpad(flashvisor_setup):
    _env, flashvisor, _backbone, _energy = flashvisor_setup
    # Paper: ~2 MB mapping for the 32 GB backbone, within the 4 MB scratchpad.
    assert flashvisor.mapping_table_bytes() == 2 * 1024 * 1024
    assert flashvisor.scratchpad.holds("flashvisor.mapping_table")


# --------------------------------------------------------------------------- #
# Timed mapping operations                                                     #
# --------------------------------------------------------------------------- #
def test_map_for_read_brings_data_into_ddr(flashvisor_setup):
    env, flashvisor, backbone, energy = flashvisor_setup
    kernel = make_kernel(input_bytes=4 * 1024 * 1024)

    result = run_process(env, flashvisor.map_for_read(kernel, 0,
                                                      kernel.input_bytes))
    assert result == kernel.input_bytes
    assert backbone.bulk_bytes_read == kernel.input_bytes
    assert flashvisor.ddr.bytes_written == kernel.input_bytes
    assert flashvisor.stats.read_requests == 1
    assert env.now > backbone.bulk_read_time(kernel.input_bytes)
    assert energy.breakdown.storage_access > 0


def test_map_for_write_buffers_in_ddr_without_flash_program(flashvisor_setup):
    env, flashvisor, backbone, _energy = flashvisor_setup
    kernel = make_kernel()

    result = run_process(env, flashvisor.map_for_write(kernel, 1 << 20,
                                                       512 * 1024))
    assert result == 512 * 1024
    assert flashvisor.pending_flush_bytes == 512 * 1024
    # The program itself is deferred to Storengine.
    assert backbone.bulk_bytes_written == 0


def test_map_zero_bytes_is_a_noop(flashvisor_setup):
    env, flashvisor, _backbone, _energy = flashvisor_setup
    kernel = make_kernel()
    assert run_process(env, flashvisor.map_for_read(kernel, 0, 0)) == 0
    assert flashvisor.stats.read_requests == 0


def test_releases_range_lock_after_mapping(flashvisor_setup):
    env, flashvisor, _backbone, _energy = flashvisor_setup
    kernel = make_kernel()
    run_process(env, flashvisor.map_for_read(kernel, 0, 128 * 1024))
    assert len(flashvisor.range_lock) == 0


def test_conflicting_write_mappings_serialize(flashvisor_setup):
    env, flashvisor, _backbone, _energy = flashvisor_setup
    kernel_a = make_kernel()
    kernel_b = make_kernel()
    order = []

    def writer(env, kernel, tag):
        yield from flashvisor.map_for_write(kernel, 0, 128 * 1024)
        order.append((tag, env.now))

    env.process(writer(env, kernel_a, "a"))
    env.process(writer(env, kernel_b, "b"))
    env.run()
    assert len(order) == 2
    assert flashvisor.stats.lock_conflicts > 0
    # The second writer must finish strictly after the first.
    assert order[1][1] > order[0][1]


def test_concurrent_readers_of_shared_input_do_not_conflict(flashvisor_setup):
    env, flashvisor, _backbone, _energy = flashvisor_setup
    kernel_a = make_kernel()
    kernel_b = make_kernel()

    def reader(env, kernel):
        yield from flashvisor.map_for_read(kernel, 0, 256 * 1024)

    env.process(reader(env, kernel_a))
    env.process(reader(env, kernel_b))
    env.run()
    assert flashvisor.stats.lock_conflicts == 0
    assert flashvisor.stats.read_requests == 2


def test_flashvisor_lwp_charged_for_translation(flashvisor_setup):
    env, flashvisor, _backbone, _energy = flashvisor_setup
    kernel = make_kernel(input_bytes=16 * 1024 * 1024)
    run_process(env, flashvisor.map_for_read(kernel, 0, kernel.input_bytes))
    assert flashvisor.lwp.busy_time() > 0


# --------------------------------------------------------------------------- #
# Extent translation against the group-at-a-time walk                          #
# --------------------------------------------------------------------------- #
def reference_translate(flashvisor, kind, word_address, num_bytes):
    """One page group per iteration, the way translation used to run."""
    geometry = flashvisor.geometry
    stats = flashvisor.stats
    start = geometry.word_address_to_group(word_address, flashvisor.word_bytes)
    groups = []
    for logical in range(start,
                         start + geometry.bytes_to_page_groups(num_bytes)):
        physical = flashvisor.mapping.lookup(logical)
        if kind == "write" and physical is not None:
            flashvisor.allocator.invalidate_group(physical)
        if kind == "write" or physical is None:
            try:
                physical = flashvisor.allocator.allocate_group()
            except OutOfSpaceError:
                stats.reclaim_requests += 1
                raise
            flashvisor.mapping.update(logical, physical)
            stats.groups_allocated += 1
        groups.append(physical)
        stats.translations += 1
    return groups


def translation_state(flashvisor):
    allocator = flashvisor.allocator
    rows = {row_id: (row.erase_count, sorted(row.valid_groups),
                     row.next_free_offset)
            for row_id, row in allocator.rows.items()}
    return (dict(flashvisor.mapping._map), dict(flashvisor.mapping._reverse),
            rows, list(allocator.free_rows), list(allocator.used_rows),
            allocator._active_row, allocator.groups_written,
            asdict(flashvisor.stats))


def apply_op(flashvisor, op, translate):
    """Run one op; returns its groups, or the name of the error it raised."""
    if op[0] == "reclaim":
        row = flashvisor.allocator.pick_victim_round_robin()
        if row is not None:
            flashvisor.allocator.reclaim_row(row)
        return row
    kind, start, count, slack = op
    geometry = flashvisor.geometry
    count = min(count, geometry.page_groups_total - start)
    word_address = start * geometry.page_group_bytes // flashvisor.word_bytes
    num_bytes = count * geometry.page_group_bytes - slack
    try:
        return translate(kind, word_address, num_bytes)
    except OutOfSpaceError as exc:
        return type(exc).__name__


#: The miniature backbone has 64 logical page groups in 8 block rows.
TINY_GROUPS = 64

extent_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["read", "write"]),
                  st.integers(0, TINY_GROUPS - 1), st.integers(1, 20),
                  st.integers(0, 4095)),
        st.just(("reclaim",))),
    max_size=25)


# The fixtures only supply immutable specs; every example builds its own
# Flashvisor pair from them.
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=extent_ops)
# Out of space part-way through a write extent, then a read extent.
@example(ops=[("write", 0, 40, 0), ("write", 0, 40, 0)])
@example(ops=[("write", 0, 59, 0), ("write", 0, 4, 0), ("read", 56, 8, 0)])
# Stale groups across a block-row boundary, then reclaim and rewrite.
@example(ops=[("read", 3, 9, 100), ("write", 5, 12, 0), ("reclaim",),
              ("write", 0, 20, 4095), ("read", 0, 20, 0)])
def test_extent_translation_matches_group_walk(spec, tiny_flash_spec, ops):
    _env, extent, _backbone, _energy = build_flashvisor(spec, tiny_flash_spec)
    _env, walk, _backbone, _energy = build_flashvisor(spec, tiny_flash_spec)
    assert extent.geometry.page_groups_total == TINY_GROUPS

    def by_extent(kind, word_address, num_bytes):
        if kind == "read":
            return extent.translate_read(word_address, num_bytes)
        return extent.translate_write(word_address, num_bytes)

    def by_group(kind, word_address, num_bytes):
        return reference_translate(walk, kind, word_address, num_bytes)

    for op in ops:
        assert (apply_op(extent, op, by_extent)
                == apply_op(walk, op, by_group)), op
        assert translation_state(extent) == translation_state(walk), op


def test_out_of_space_mid_extent_counts_resolved_groups(spec, tiny_flash_spec):
    _env, flashvisor, _backbone, _energy = build_flashvisor(spec,
                                                            tiny_flash_spec)
    group_bytes = flashvisor.geometry.page_group_bytes
    words_per_group = group_bytes // flashvisor.word_bytes
    flashvisor.translate_write(0, 60 * group_bytes)
    # Groups 56..59 are mapped; 60..63 are free but only 4 physical groups
    # remain, so a rewrite of 58..63 fails on its fifth group.
    with pytest.raises(OutOfSpaceError):
        flashvisor.translate_write(58 * words_per_group, 6 * group_bytes)
    assert flashvisor.stats.translations == 60 + 4
    assert flashvisor.stats.groups_allocated == 64
    assert flashvisor.stats.reclaim_requests == 1
    assert flashvisor.mapping.lookup(62) is None
