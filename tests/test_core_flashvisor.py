"""Unit tests for Flashvisor: translation, protection, and timed mapping."""

from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import FlashAbacusAccelerator
from repro.core.flashvisor import Flashvisor
from repro.core.kernel import build_kernel
from repro.flash.backbone import FlashBackbone
from repro.flash.ftl import OutOfSpaceError
from repro.hw.lwp import LWPCluster
from repro.hw.memory import DDR3L, Scratchpad
from repro.hw.power import EnergyAccountant
from repro.platform import PlatformConfig
from repro.serve import ServingScenario, ServingSession
from repro.serve.session import build_serving_backend
from repro.sim import Environment
from repro.workloads import heterogeneous_workload

from helpers import assert_valid_exactly_while_mapped, run_process


def build_flashvisor(spec, flash_spec):
    env = Environment()
    energy = EnergyAccountant()
    cluster = LWPCluster(env, spec.lwp, energy)
    ddr = DDR3L(env, spec.memory, energy)
    scratchpad = Scratchpad(env, spec.memory, energy)
    backbone = FlashBackbone(env, flash_spec, energy)
    flashvisor = Flashvisor(env, cluster.flashvisor_lwp, backbone, ddr,
                            scratchpad, spec.interconnect.message_queue_latency_s,
                            energy)
    return env, flashvisor, backbone, energy


@pytest.fixture
def flashvisor_setup(spec):
    return build_flashvisor(spec, spec.flash)


def mapped_groups(flashvisor, start, count):
    """Physical groups (or None) backing ``count`` groups from ``start``."""
    return [flashvisor.mapping.lookup(group)
            for group in range(start, start + count)]


def make_kernel(input_bytes=1024 * 1024, output_bytes=1024):
    return build_kernel("k", total_instructions=1e6, input_bytes=input_bytes,
                        output_bytes=output_bytes, microblock_count=1,
                        serial_microblocks=0, screens_per_microblock=1)


# --------------------------------------------------------------------------- #
# Pure translation logic                                                       #
# --------------------------------------------------------------------------- #
def test_translate_read_maps_unmapped_groups_on_first_use(flashvisor_setup):
    env, flashvisor, _backbone, _energy = flashvisor_setup
    kernel = make_kernel()
    run_process(env, flashvisor.map_for_read(kernel, 0, 256 * 1024))
    assert len(flashvisor.mapping) == 4      # 256 KB / 64 KB page groups
    groups = mapped_groups(flashvisor, 0, 4)
    # Reading the section again reuses the same physical groups.
    run_process(env, flashvisor.map_for_read(kernel, 0, 256 * 1024))
    assert mapped_groups(flashvisor, 0, 4) == groups
    assert flashvisor.allocator.free_group_count \
        == flashvisor.geometry.page_groups_total - 4


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
    env, flashvisor, _backbone, _energy = flashvisor_setup
    run_process(env, flashvisor.map_for_read(make_kernel(), 0, 64 * 1024))
    flashvisor.translate_write(16384, 64 * 1024)
    assert flashvisor.stats.translations == 2


def test_extent_past_the_backbone_is_rejected(flashvisor_setup):
    env, flashvisor, _backbone, _energy = flashvisor_setup
    geometry = flashvisor.geometry
    group_bytes = geometry.page_group_bytes
    last_word = ((geometry.page_groups_total - 1) * group_bytes
                 // flashvisor.word_bytes)
    with pytest.raises(ValueError, match=f"{3 * group_bytes} bytes at "
                                         f"address {last_word}"):
        flashvisor.translate_write(last_word, 3 * group_bytes)
    assert len(flashvisor.mapping) == 0
    assert flashvisor.stats.translations == 0
    kernel = make_kernel()
    for map_section in (flashvisor.map_for_read, flashvisor.map_for_write):
        with pytest.raises(ValueError, match="runs past the backbone"):
            run_process(env, map_section(kernel, last_word, group_bytes + 1))
    assert len(flashvisor.range_lock) == 0
    assert env.now == 0.0
    # The last group on its own is still a valid section.
    run_process(env, flashvisor.map_for_read(kernel, last_word, group_bytes))
    assert len(flashvisor.mapping) == 1
    assert flashvisor.mapping.lookup(geometry.page_groups_total - 1) \
        is not None


def test_mapping_table_fits_in_scratchpad(flashvisor_setup):
    _env, flashvisor, _backbone, _energy = flashvisor_setup
    # Paper: ~2 MB mapping for the 32 GB backbone, within the 4 MB scratchpad.
    assert flashvisor.mapping_table_bytes() == 2 * 1024 * 1024
    assert flashvisor.scratchpad.allocated_bytes \
        == flashvisor.mapping_table_bytes()


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
    # Longer than the unloaded stream out of the backbone alone.
    assert env.now > (backbone.spec.page_read_latency_s
                      + kernel.input_bytes / backbone.aggregate_read_bandwidth)
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
    """One page group per iteration: allocate, bind, then invalidate the
    group it replaced."""
    geometry = flashvisor.geometry
    allocator = flashvisor.allocator
    stats = flashvisor.stats
    start = geometry.word_address_to_group(word_address, flashvisor.word_bytes)
    groups = []
    for logical in range(start,
                         start + geometry.bytes_to_page_groups(num_bytes)):
        physical = flashvisor.mapping.lookup(logical)
        if kind == "write" or physical is None:
            physical = allocator.allocate_run(1)[0]
            old = flashvisor.mapping.lookup(logical)
            flashvisor.mapping.bind_run(logical, [physical])
            if old is not None:
                allocator.retire([old])
        groups.append(physical)
        stats.translations += 1
    return groups


def translation_state(flashvisor):
    """The whole FTL state, dict insertion orders included."""
    mapping = flashvisor.mapping
    allocator = flashvisor.allocator
    # The mapped bitmap marks exactly the mapped logical groups.
    assert [group for group, bit in enumerate(mapping._mapped) if bit] \
        == sorted(mapping._map)
    rows = [(row_id, sorted(row.valid_groups), row.next_free_offset)
            for row_id, row in allocator.rows.items()]
    return (list(mapping._map.items()), list(mapping._reverse.items()),
            bytes(mapping._mapped), rows, list(allocator.free_rows),
            list(allocator.used_rows), allocator._active_row,
            asdict(flashvisor.stats))


def reclaim(flashvisor):
    """Storengine's GC without its timing: move each valid group of the
    oldest used row to a fresh group, rebind its owner, erase the row."""
    allocator = flashvisor.allocator
    mapping = flashvisor.mapping
    row = allocator.pick_victim_round_robin()
    if row is not None:
        for group in sorted(allocator.rows[row].valid_groups):
            copy = allocator.allocate_run(1)
            allocator.retire(mapping.bind_run(mapping.reverse_lookup(group),
                                              copy))
        allocator.reclaim_row(row)
    return row


def apply_op(flashvisor, op, translate):
    """Run one op; returns its groups, or the name of the error it raised."""
    try:
        if op[0] == "reclaim":
            return reclaim(flashvisor)
        kind, start, count, slack = op
        geometry = flashvisor.geometry
        count = min(count, geometry.page_groups_total - start)
        word_address = (start * geometry.page_group_bytes
                        // flashvisor.word_bytes)
        num_bytes = count * geometry.page_group_bytes - slack
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
# A partly mapped read: two unmapped runs around a mapped one.
@example(ops=[("write", 4, 3, 0), ("read", 0, 10, 0)])
def test_extent_translation_matches_group_walk(spec, tiny_flash_spec, ops):
    _env, extent, _backbone, _energy = build_flashvisor(spec, tiny_flash_spec)
    _env, walk, _backbone, _energy = build_flashvisor(spec, tiny_flash_spec)
    assert extent.geometry.page_groups_total == TINY_GROUPS

    def by_extent(kind, word_address, num_bytes):
        start, count = extent._extent(word_address, num_bytes)
        if kind == "write":
            return extent._write_extent(start, count)
        extent._read_extent(start, count)
        return mapped_groups(extent, start, count)

    def by_group(kind, word_address, num_bytes):
        return reference_translate(walk, kind, word_address, num_bytes)

    for op in ops:
        assert (apply_op(extent, op, by_extent)
                == apply_op(walk, op, by_group)), op
        assert translation_state(extent) == translation_state(walk), op
        assert_valid_exactly_while_mapped(extent)


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
    # Every group was handed out before the rewrite failed.
    assert flashvisor.allocator.free_group_count == 0
    assert flashvisor.mapping.lookup(62) is None


def test_rewrite_out_of_space_part_way_keeps_unreplaced_groups(
        spec, tiny_flash_spec):
    _env, flashvisor, _backbone, _energy = build_flashvisor(spec,
                                                            tiny_flash_spec)
    group_bytes = flashvisor.geometry.page_group_bytes
    flashvisor.translate_write(0, 40 * group_bytes)
    before = mapped_groups(flashvisor, 0, 40)
    # 24 free groups: the rewrite replaces logical 0-23 and fails on 24.
    with pytest.raises(OutOfSpaceError):
        flashvisor.translate_write(0, 40 * group_bytes)
    after = mapped_groups(flashvisor, 0, 40)
    assert after[24:] == before[24:]
    assert set(after[:24]).isdisjoint(before)
    assert_valid_exactly_while_mapped(flashvisor)


def test_negative_address_is_rejected_naming_it(flashvisor_setup):
    env, flashvisor, _backbone, _energy = flashvisor_setup
    with pytest.raises(ValueError, match="address -16 is negative"):
        flashvisor.translate_write(-16, 4096)
    with pytest.raises(ValueError, match="address -1 is negative"):
        run_process(env, flashvisor.map_for_read(make_kernel(), -1, 4096))
    assert len(flashvisor.mapping) == 0
    assert flashvisor.stats.translations == 0


# --------------------------------------------------------------------------- #
# Range-lock traffic: the bound the list-based lock is sized by                #
# --------------------------------------------------------------------------- #
def record_held_ranges(accelerator):
    """Wrap the accelerator's ``try_acquire`` on the instance; returns the
    list that collects ``len(lock)`` at every call."""
    lock = accelerator.flashvisor.range_lock
    inner = lock.try_acquire
    held = []

    def counting(start, end, mode, owner):
        held.append(len(lock))
        return inner(start, end, mode, owner)

    lock.try_acquire = counting
    return held


def serving_run(config, instrument):
    """A short seed-3 serving run, with ``instrument(accelerator)`` called
    before it starts; returns what it returned and the accelerator."""
    class RecordingSession(ServingSession):
        def _build_backend(self):
            backend = build_serving_backend(self.scenario, self.config)
            self.accelerator = backend.accelerator
            self.recorded = instrument(backend.accelerator)
            return backend

    session = RecordingSession(
        ServingScenario(process="poisson", offered_rps=240.0,
                        duration_s=0.3, seed=3), config)
    session.run()
    return session.recorded, session.accelerator


def batch_run(config, instrument):
    """The MX2 batch mix, instrumented like :func:`serving_run`."""
    accelerator = FlashAbacusAccelerator(config=config)
    recorded = instrument(accelerator)
    accelerator.run_workload(
        heterogeneous_workload("MX2", instances_per_kernel=2,
                               input_scale=config.input_scale), "MX2")
    accelerator.shutdown()
    return recorded, accelerator


def serving_held_ranges(config):
    held, accelerator = serving_run(config, record_held_ranges)
    return held, len(accelerator.cluster.workers)


def batch_held_ranges(config):
    held, accelerator = batch_run(config, record_held_ranges)
    return held, len(accelerator.cluster.workers)


@pytest.mark.parametrize("run", [serving_held_ranges, batch_held_ranges])
@pytest.mark.parametrize("lwp_count", [None, 4])
def test_range_lock_never_holds_more_ranges_than_workers(run, lwp_count):
    # Only worker LWPs run screens and a screen holds at most one mapped
    # section, so an acquire sees at most one range held per *other*
    # worker.  The runs reach that bound, so the check is not vacuous:
    # five ranges held at the default eight LWPs (six workers).
    config = PlatformConfig(system="IntraO3", lwp_count=lwp_count,
                            input_scale=0.01)
    held, workers = run(config)
    assert max(held) == workers - 1


# --------------------------------------------------------------------------- #
# Extent traffic: the shapes the run path is sized by                          #
# --------------------------------------------------------------------------- #
def record_translation_paths(accelerator):
    """Count the runs each extent binds, the extents that bind more than
    one, and the opened block rows, on the instance."""
    flashvisor = accelerator.flashvisor
    allocator = flashvisor.allocator
    seen = {"runs": 0, "split": 0, "opened": set()}
    bind_extent = flashvisor._bind_extent
    open_new_row = allocator._open_new_row

    def counting_bind(start, count, runs):
        seen["runs"] += len(runs)
        seen["split"] += len(runs) > 1
        return bind_extent(start, count, runs)

    def recording_open():
        open_new_row()
        seen["opened"].add(allocator._active_row)

    flashvisor._bind_extent = counting_bind
    allocator._open_new_row = recording_open
    return seen


@pytest.mark.parametrize("run", [serving_run, batch_run])
def test_data_sections_map_as_whole_runs(run):
    # A data section is read or written whole, so every extent is wholly
    # mapped or wholly unmapped: none splits into more than one run, and
    # only the block rows the runs opened exist.
    seen, accelerator = run(PlatformConfig(system="IntraO3",
                                           input_scale=0.01),
                            record_translation_paths)
    flashvisor = accelerator.flashvisor
    assert seen["runs"] > 0
    assert seen["split"] == 0
    assert len(flashvisor.allocator.rows) == len(seen["opened"]) > 0
    assert_valid_exactly_while_mapped(flashvisor)
    # The count is not vacuous: past the highest mapped group h, map
    # h + 2 alone; then h to h + 3 has two unmapped runs.
    highest = len(flashvisor.mapping._mapped) - 1
    flashvisor._read_extent(highest + 2, 1)
    assert seen["split"] == 0
    flashvisor._read_extent(highest, 4)
    assert seen["split"] == 1
