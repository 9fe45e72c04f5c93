"""Property-based tests (hypothesis) on core data structures and invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kernel import build_kernel
from repro.core.execution_chain import MultiAppExecutionChain
from repro.flash.ftl import BlockAllocator, OutOfSpaceError, PageGroupMappingTable
from repro.flash.geometry import FlashGeometry
from repro.hw.spec import FlashSpec, LWPSpec
from repro.hw.lwp import LWP
from repro.sim.engine import Environment
from repro.sim.resources import Resource
from repro.sim.stats import SummaryStats, TimeWeightedStat

from helpers import kernel_instructions, serial_fraction


# --------------------------------------------------------------------------- #
# Simulation engine: event ordering                                            #
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=30))
def test_timeouts_complete_in_non_decreasing_time_order(delays):
    env = Environment()
    log = []

    def proc(env, delay):
        yield env.timeout(delay)
        log.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert log == sorted(log)
    assert len(log) == len(delays)
    assert env.now == pytest.approx(max(delays))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=15))
def test_resource_capacity_one_serializes_total_time(durations):
    env = Environment()
    resource = Resource(env, capacity=1)

    def user(env, hold):
        with resource.request() as req:
            yield req
            yield env.timeout(hold)

    for hold in durations:
        env.process(user(env, hold))
    env.run()
    assert env.now == pytest.approx(sum(durations))


# --------------------------------------------------------------------------- #
# Statistics                                                                   #
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_summary_stats_bounds_and_percentile_monotonicity(values):
    stats = SummaryStats(values)
    assert stats.min <= stats.mean <= stats.max
    assert stats.percentile(0) == stats.min
    assert stats.percentile(100) == stats.max
    assert stats.percentile(25) <= stats.percentile(75)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=10.0),
                          st.floats(min_value=0.0, max_value=100.0)),
                min_size=1, max_size=30))
def test_time_weighted_mean_within_value_range(steps):
    stat = TimeWeightedStat(0.0)
    now = 0.0
    values = [0.0]
    for delta, value in steps:
        now += delta
        stat.update(now, value)
        values.append(value)
    mean = stat.mean(now + 1.0)
    assert min(values) - 1e-9 <= mean <= max(values) + 1e-9


# --------------------------------------------------------------------------- #
# LWP timing model                                                             #
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e3, max_value=1e12),
       st.floats(min_value=0.0, max_value=1.0))
def test_lwp_estimate_is_positive_and_bounded_by_issue_width(instructions, ld_st):
    env = Environment()
    lwp = LWP(env, LWPSpec(), 0)
    estimate = lwp.estimate(instructions, load_store_fraction=ld_st)
    assert estimate.seconds > 0
    # Never faster than the theoretical peak (all 8 FUs busy every cycle)
    # and never slower than one instruction per cycle.
    peak = instructions / (LWPSpec().functional_units * LWPSpec().frequency_hz)
    floor = instructions / LWPSpec().frequency_hz
    assert peak <= estimate.seconds <= floor * 1.000001
    assert 1 <= estimate.functional_units_used <= 8


# --------------------------------------------------------------------------- #
# Flash geometry and FTL                                                       #
# --------------------------------------------------------------------------- #
flash_spec_strategy = st.builds(
    FlashSpec,
    channels=st.integers(min_value=1, max_value=4),
    packages_per_channel=st.integers(min_value=1, max_value=4),
    dies_per_package=st.integers(min_value=1, max_value=2),
    planes_per_die=st.integers(min_value=1, max_value=2),
    page_bytes=st.sampled_from([4096, 8192]),
    pages_per_block=st.sampled_from([8, 16]),
    blocks_per_die=st.sampled_from([8, 16, 32]),
)


@settings(max_examples=50, deadline=None)
@given(flash_spec_strategy, st.integers(min_value=0, max_value=10_000))
def test_geometry_group_expansion_is_unique_and_in_bounds(flash_spec, group):
    geometry = FlashGeometry(flash_spec)
    group = group % geometry.page_groups_total
    pages = geometry.group_to_physical_pages(group)
    assert len(pages) == geometry.pages_per_group
    assert len(set(pages)) == len(pages)
    for page in pages:
        assert 0 <= page.channel < flash_spec.channels
        assert 0 <= page.package < flash_spec.packages_per_channel
        assert 0 <= page.die < flash_spec.dies_per_package
        assert 0 <= page.plane < flash_spec.planes_per_die
        assert 0 <= page.block < flash_spec.blocks_per_die
        assert 0 <= page.page < flash_spec.pages_per_block


@settings(max_examples=50, deadline=None)
@given(flash_spec_strategy,
       st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                max_size=60))
def test_allocator_never_hands_out_duplicate_live_groups(flash_spec, runs):
    geometry = FlashGeometry(flash_spec)
    allocator = BlockAllocator(geometry, overprovision=0.1)
    allocated = []
    for count in runs:
        try:
            run = allocator.allocate_run(count)
        except OutOfSpaceError:
            break
        assert 1 <= len(run) <= count
        allocated += run
    assert len(allocated) == len(set(allocated))
    assert all(0 <= g < geometry.page_groups_total for g in allocated)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=255),
                          st.integers(min_value=1, max_value=8)),
                min_size=1, max_size=100))
def test_mapping_table_reflects_last_update(runs):
    geometry = FlashGeometry(FlashSpec())
    table = PageGroupMappingTable(geometry)
    expected = {}
    next_physical = 0
    for start, count in runs:
        physical = list(range(next_physical, next_physical + count))
        next_physical += count
        replaced = [expected[g] for g in range(start, start + count)
                    if g in expected]
        assert table.bind_run(start, physical) == replaced
        expected.update(zip(range(start, start + count), physical))
    for logical, physical in expected.items():
        assert table.lookup(logical) == physical
        assert table.reverse_lookup(physical) == logical
    assert len(table) == len(expected)
    assert table.unmapped_runs(0, 263) == _gaps(sorted(expected), 263)


def _gaps(mapped, end):
    """Maximal runs of groups below ``end`` missing from sorted ``mapped``."""
    gaps, previous = [], -1
    for group in mapped + [end]:
        if group > previous + 1:
            gaps.append((previous + 1, group - previous - 1))
        previous = group
    return gaps


# --------------------------------------------------------------------------- #
# Kernel construction invariants                                               #
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e3, max_value=1e10),
       st.integers(min_value=0, max_value=1 << 28),
       st.integers(min_value=0, max_value=1 << 24),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=8))
def test_build_kernel_conserves_totals(instructions, input_bytes, output_bytes,
                                       mblks, screens):
    serial = mblks // 2
    kernel = build_kernel("prop", instructions, input_bytes, output_bytes,
                          microblock_count=mblks, serial_microblocks=serial,
                          screens_per_microblock=screens)
    assert kernel_instructions(kernel) == pytest.approx(instructions, rel=1e-9)
    assert kernel.input_bytes == input_bytes
    assert kernel.output_bytes == output_bytes
    assert sum(m.serial for m in kernel.microblocks) == serial
    assert 0.0 <= serial_fraction(kernel) <= 1.0
    # Exactly one microblock reads flash and exactly one writes it.
    assert sum(1 for m in kernel.microblocks if m.reads_flash) == 1
    assert sum(1 for m in kernel.microblocks if m.writes_flash) == 1


# --------------------------------------------------------------------------- #
# Execution chain: dependency order                                            #
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=6))
def test_chain_never_exposes_later_microblocks_early(mblks, screens, kernels):
    chain = MultiAppExecutionChain()
    for i in range(kernels):
        chain.add_kernel(build_kernel(f"k{i}", 1e6, 1024, 64,
                                      microblock_count=mblks,
                                      serial_microblocks=0,
                                      screens_per_microblock=screens,
                                      app_id=i))
    completed_per_kernel = {c.kernel.kernel_id: -1 for c in chain.all_chains()}
    # Drain the chain in arbitrary (but deterministic) order.
    while not chain.complete:
        for kernel_chain in chain.all_chains():
            node = kernel_chain.current_node()
            # An exposed microblock is never more than one step ahead of
            # the last completed microblock of its kernel.
            if node is not None:
                assert node.microblock.index \
                    == completed_per_kernel[kernel_chain.kernel.kernel_id] + 1
        ready = chain.oldest_ready()
        assert ready, "chain stalled with incomplete kernels"
        kernel_chain, node, screen = ready
        chain.mark_running(screen, 0, 0.0)
        chain.mark_done(kernel_chain, screen, 1.0)
        if node.complete:
            completed_per_kernel[kernel_chain.kernel.kernel_id] = \
                node.microblock.index
    assert all(chain_.complete for chain_ in chain.all_chains())
