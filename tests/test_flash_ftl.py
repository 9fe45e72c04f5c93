"""Unit tests for the FTL data structures: mapping table and block allocator."""

import pytest

from repro.flash.ftl import BlockAllocator, OutOfSpaceError, PageGroupMappingTable
from repro.flash.geometry import FlashGeometry


@pytest.fixture
def geometry(tiny_flash_spec):
    return FlashGeometry(tiny_flash_spec)


# --------------------------------------------------------------------------- #
# Mapping table                                                                #
# --------------------------------------------------------------------------- #
def test_mapping_lookup_and_update(geometry):
    table = PageGroupMappingTable(geometry)
    assert table.lookup(5) is None
    assert table.bind_run(5, [100]) == []
    assert table.lookup(5) == 100
    # A rebind returns the groups it replaced, for the caller to retire.
    assert table.bind_run(4, [199, 200]) == [100]
    assert table.reverse_lookup(200) == 5
    assert table.reverse_lookup(100) is None
    assert len(table) == 2


def test_mapping_table_size_matches_paper_arithmetic(spec):
    """Paper: 32 GB with 64 KB page groups needs about 2 MB of mapping."""
    geometry = FlashGeometry(spec.flash)
    table = PageGroupMappingTable(geometry)
    assert table.size_bytes() == geometry.page_groups_total * 4
    assert table.size_bytes() == 2 * 1024 * 1024
    # It must fit in the 4 MB scratchpad alongside other metadata.
    assert table.size_bytes() <= 4 * 1024 * 1024


def test_mapping_mapped_groups_sorted(geometry):
    table = PageGroupMappingTable(geometry)
    for logical in (9, 3, 7):
        table.bind_run(logical, [logical * 10])
    assert len(table) == 3
    assert [g for g in range(10) if table.lookup(g) is not None] == [3, 7, 9]


def test_mapped_bitmap_counts_and_grows_only_to_the_highest_group(geometry):
    table = PageGroupMappingTable(geometry)
    total = geometry.page_groups_total
    assert table.unmapped_runs(0, total) == [(0, total)]
    table.bind_run(4, [40, 41, 42])
    table.bind_run(9, [90])
    assert len(table._mapped) == 10
    assert table.unmapped_runs(0, 16) == [(0, 4), (7, 2), (10, 6)]
    assert table.unmapped_runs(4, 3) == []
    assert table.unmapped_runs(6, 4) == [(7, 2)]
    # Extents that end exactly at the bitmap's end, and one past it.
    assert table.unmapped_runs(9, 1) == []
    assert table.unmapped_runs(4, 6) == [(7, 2)]
    assert table.unmapped_runs(9, 2) == [(10, 1)]
    assert [table.lookup(group) for group in (4, 5, 6)] == [40, 41, 42]
    assert table.reverse_lookup(41) == 5


# --------------------------------------------------------------------------- #
# Block allocator                                                              #
# --------------------------------------------------------------------------- #
def test_allocator_hands_out_sequential_groups(geometry):
    allocator = BlockAllocator(geometry, overprovision=0.1)
    groups = [allocator.allocate_run(1)[0] for _ in range(10)]
    assert groups == list(range(10))
    assert allocator.groups_written == 10


def test_allocate_run_stops_at_the_row_end_and_rows_build_on_open(geometry):
    allocator = BlockAllocator(geometry, overprovision=0.1)
    per_row = allocator.groups_per_row
    assert allocator.rows == {}
    assert allocator.allocate_run(per_row + 3) == list(range(per_row))
    assert list(allocator.used_rows) == [0]
    assert allocator.allocate_run(3) == [per_row, per_row + 1, per_row + 2]
    assert sorted(allocator.rows) == [0, 1]
    assert allocator.groups_written == per_row + 3


def test_allocator_free_count_decreases(geometry):
    allocator = BlockAllocator(geometry, overprovision=0.1)
    before = allocator.free_group_count
    allocator.allocate_run(3)
    assert allocator.free_group_count == before - 3


def test_allocator_moves_full_rows_to_used_pool(geometry):
    allocator = BlockAllocator(geometry, overprovision=0.1)
    for _ in range(allocator.groups_per_row):
        allocator.allocate_run(1)
    assert list(allocator.used_rows) == [0]


def test_allocator_out_of_space(geometry):
    allocator = BlockAllocator(geometry, overprovision=0.1)
    total = geometry.page_groups_total
    while total:
        total -= len(allocator.allocate_run(total))
    with pytest.raises(OutOfSpaceError):
        allocator.allocate_run(1)


def test_allocator_invalidate_and_round_robin_victim(geometry):
    allocator = BlockAllocator(geometry, overprovision=0.1)
    per_row = allocator.groups_per_row
    allocator.allocate_run(per_row)
    # Retire everything in row 1, nothing in row 0.
    allocator.retire(allocator.allocate_run(per_row))
    assert allocator.rows[1].valid_count == 0
    assert allocator.rows[0].valid_count == per_row
    # Round robin ignores validity: the first used row is picked first.
    assert allocator.pick_victim_round_robin() == 0
    assert allocator.pick_victim_round_robin() == 1
    assert allocator.pick_victim_round_robin() is None


def test_allocator_greedy_victim_prefers_fewest_valid(geometry):
    allocator = BlockAllocator(geometry, overprovision=0.1)
    per_row = allocator.groups_per_row
    allocator.allocate_run(per_row)
    allocator.retire(allocator.allocate_run(per_row))
    assert allocator.pick_victim_greedy() == 1


def test_allocator_reclaim_returns_row_and_counts_erase(geometry):
    allocator = BlockAllocator(geometry, overprovision=0.1)
    # Fill one row and open the next.
    allocator.allocate_run(allocator.groups_per_row)
    allocator.allocate_run(1)
    victim = allocator.pick_victim_round_robin()
    free_before = len(allocator.free_rows)
    erases_before = {row_id: row.erase_count
                     for row_id, row in allocator.rows.items()}
    allocator.reclaim_row(victim)
    assert len(allocator.free_rows) == free_before + 1
    # Only the victim's erase count moved.
    assert {row_id: row.erase_count
            for row_id, row in allocator.rows.items()} \
        == {**erases_before, victim: erases_before[victim] + 1}
    assert allocator.rows[victim].erase_count == 1


def test_allocator_needs_gc_when_free_pool_shrinks(geometry):
    allocator = BlockAllocator(geometry, overprovision=0.2)
    assert not allocator.needs_gc()
    usable_rows = allocator.total_rows - allocator.reserved_rows
    for _ in range(usable_rows):
        allocator.allocate_run(allocator.groups_per_row)
    assert allocator.needs_gc()


def test_allocator_rejects_bad_overprovision(geometry):
    with pytest.raises(ValueError):
        BlockAllocator(geometry, overprovision=1.0)


# --------------------------------------------------------------------------- #
# Reverse mapping maintenance                                                  #
# --------------------------------------------------------------------------- #
def test_reverse_lookup_tracks_remaps(geometry):
    table = PageGroupMappingTable(geometry)
    table.bind_run(3, [30, 40])
    assert table.reverse_lookup(30) == 3
    # Remapping logical 3 releases physical 30 from the reverse direction.
    table.bind_run(3, [31])
    assert table.reverse_lookup(30) is None
    assert table.reverse_lookup(31) == 3
    assert table.reverse_lookup(40) == 4


def test_reverse_lookup_consistent_under_churn(geometry):
    """reverse_lookup must agree with a full scan after arbitrary churn."""
    table = PageGroupMappingTable(geometry)
    import random
    rng = random.Random(17)
    next_physical = 0
    for _ in range(500):
        # Runs over mapped and unmapped groups alike.
        logical = rng.randrange(32)
        run = rng.choice((1, 1, 1, 2, 3, 4))
        table.bind_run(logical, list(range(next_physical,
                                           next_physical + run)))
        next_physical += run
    forward = {log: table.lookup(log) for log in range(36)
               if table.lookup(log) is not None}
    for logical, physical in forward.items():
        assert table.reverse_lookup(physical) == logical
    for physical in range(next_physical):
        logical = table.reverse_lookup(physical)
        if logical is not None:
            assert forward[logical] == physical
