"""Sustained-write garbage-collection behavior (serving-style churn).

A long run of paced overwrites — the write pattern an online serving
workload produces — must stay inside the overprovisioned region with GC
keeping up in the background, keep wear level spread bounded, and reclaim
correctly under both victim policies.
"""

import random
from collections import Counter

import pytest

from repro.core.flashvisor import Flashvisor
from repro.core.storengine import Storengine
from repro.flash.backbone import FlashBackbone
from repro.hw.lwp import LWPCluster
from repro.hw.memory import DDR3L, Scratchpad
from repro.hw.power import EnergyAccountant
from repro.sim import Environment

from helpers import assert_valid_exactly_while_mapped, cyclic_garbage, spy


def build_stack(spec, flash_spec, **storengine_kwargs):
    env = Environment()
    energy = EnergyAccountant()
    cluster = LWPCluster(env, spec.lwp, energy)
    ddr = DDR3L(env, spec.memory, energy)
    scratchpad = Scratchpad(env, spec.memory, energy)
    backbone = FlashBackbone(env, flash_spec, energy)
    flashvisor = Flashvisor(env, cluster.flashvisor_lwp, backbone, ddr,
                            scratchpad, spec.interconnect.message_queue_latency_s,
                            energy)
    storengine = Storengine(env, cluster.storengine_lwp, flashvisor, backbone,
                            energy, **storengine_kwargs)
    return env, flashvisor, storengine, backbone


def sustained_writer(env, flashvisor, geometry, rounds, logical_span,
                     pace_s=2e-4, rng=None):
    """Paced stream of overwrites across ``logical_span`` logical groups,
    in order, or in random order when given ``rng``."""
    group_bytes = geometry.page_group_bytes
    words_per_group = group_bytes // 4
    for i in range(rounds):
        logical = (i % logical_span if rng is None
                   else rng.randrange(logical_span))
        flashvisor.translate_write(logical * words_per_group, group_bytes)
        yield env.timeout(pace_s)


@pytest.mark.parametrize("victim_policy", ["round_robin", "greedy"])
def test_sustained_writes_stay_within_overprovisioning(
        spec, tiny_flash_spec, victim_policy):
    env, flashvisor, storengine, backbone = build_stack(
        spec, tiny_flash_spec, poll_interval_s=1e-4, journal_interval_s=1e3,
        victim_policy=victim_policy)
    geometry = backbone.geometry
    allocator = flashvisor.allocator
    # Overwrite a quarter of the logical space several device-capacities
    # over: without working GC the allocator would run out of rows.
    logical_span = max(1, geometry.page_groups_total // 4)
    rounds = geometry.page_groups_total * 4
    written = []
    spy(allocator, "allocate_run", lambda run, count: written.append(len(run)))
    writer = env.process(sustained_writer(env, flashvisor, geometry, rounds,
                                          logical_span))
    env.run(until=rounds * 2e-4 + 1.0)
    assert writer.triggered and writer.ok, \
        "sustained writes must never hit OutOfSpaceError while GC runs"
    # GC actually ran and returned erased rows to the free pool.
    assert storengine.stats.gc_invocations > 0
    assert storengine.stats.erased_rows > 0
    assert len(allocator.free_rows) > 0
    # The device wrote far more physical groups than its capacity; only
    # reclamation makes that possible.
    assert sum(written) > geometry.page_groups_total


@pytest.mark.parametrize("victim_policy", ["round_robin", "greedy"])
def test_sustained_writes_keep_wear_spread_bounded(
        spec, tiny_flash_spec, victim_policy):
    env, flashvisor, storengine, backbone = build_stack(
        spec, tiny_flash_spec, poll_interval_s=1e-4, journal_interval_s=1e3,
        victim_policy=victim_policy)
    geometry = backbone.geometry
    allocator = flashvisor.allocator
    logical_span = max(1, geometry.page_groups_total // 4)
    rounds = geometry.page_groups_total * 6
    erased = Counter()
    spy(allocator, "reclaim_row", lambda _, row_id: erased.update((row_id,)))
    env.process(sustained_writer(env, flashvisor, geometry, rounds,
                                 logical_span))
    env.run(until=rounds * 2e-4 + 1.0)
    erases = [erased[row_id] for row_id in allocator.rows]
    total_rows = geometry.page_groups_total // allocator.groups_per_row
    mean_erases = sum(erases) / total_rows
    assert mean_erases >= 1.0, "churn must actually cycle the device"
    # Log-structured allocation plus pool-ordered victim selection keeps
    # erase counts close together: the spread must not grow with the
    # number of overwrite cycles.
    assert max(erases) - min(erases) <= 3


@pytest.mark.parametrize("victim_policy", ["round_robin", "greedy"])
def test_sustained_writes_preserve_live_mappings(
        spec, tiny_flash_spec, victim_policy):
    env, flashvisor, storengine, backbone = build_stack(
        spec, tiny_flash_spec, poll_interval_s=1e-4, journal_interval_s=1e3,
        victim_policy=victim_policy)
    geometry = backbone.geometry
    group_bytes = geometry.page_group_bytes
    words_per_group = group_bytes // 4
    # Live data parked at the top of the logical space, written once.
    live_base = geometry.page_groups_total // 2
    live_logical = list(range(live_base, live_base + 4))
    flashvisor.translate_write(live_base * words_per_group, 4 * group_bytes)
    # Churn the bottom of the logical space until GC has migrated rows.
    logical_span = max(1, geometry.page_groups_total // 4)
    rounds = geometry.page_groups_total * 4
    env.process(sustained_writer(env, flashvisor, geometry, rounds,
                                 logical_span))
    env.run(until=rounds * 2e-4 + 1.0)
    assert storengine.stats.erased_rows > 0
    for logical in live_logical:
        physical = flashvisor.mapping.lookup(logical)
        assert physical is not None
        # The maintained reverse direction agrees after arbitrary GC moves.
        assert flashvisor.mapping.reverse_lookup(physical) == logical


@pytest.mark.parametrize("seed", range(8))
def test_random_rewrites_leave_valid_exactly_the_mapped_groups(
        spec, tiny_flash_spec, seed):
    # Rewrites land while GC copies: a group rewritten after the victim
    # was picked must not be copied, and a copy whose owner was rewritten
    # during the copy must not be bound.
    env, flashvisor, storengine, backbone = build_stack(
        spec, tiny_flash_spec, poll_interval_s=1e-4, journal_interval_s=1e3)
    geometry = backbone.geometry
    rounds = geometry.page_groups_total * 6
    writer = env.process(sustained_writer(
        env, flashvisor, geometry, rounds, geometry.page_groups_total // 3,
        rng=random.Random(seed)))
    env.run(until=rounds * 2e-4 + 1.0)
    assert writer.triggered and writer.ok
    assert storengine.stats.erased_rows > 0
    assert_valid_exactly_while_mapped(flashvisor)


def test_a_finished_gc_run_is_freed_by_refcounting(spec, tiny_flash_spec):
    # Garbage collection's migrations and erases wait on the backbone's
    # timeouts; none of them may refer back to the run.
    def run():
        env, flashvisor, storengine, backbone = build_stack(
            spec, tiny_flash_spec, poll_interval_s=1e-4,
            journal_interval_s=1e3)
        geometry = backbone.geometry
        rounds = geometry.page_groups_total * 2
        env.process(sustained_writer(env, flashvisor, geometry, rounds,
                                     geometry.page_groups_total // 4))
        env.run(until=rounds * 2e-4 + 1.0)
        assert storengine.stats.erased_rows > 0
        storengine.stop()
        env.close()

    leaked = cyclic_garbage(run)
    assert not leaked, leaked.most_common(12)
