"""Unit tests for Storengine: flushing, journaling, garbage collection."""

import pytest

from repro.core.flashvisor import Flashvisor
from repro.core.storengine import Storengine
from repro.flash.backbone import FlashBackbone
from repro.hw.lwp import LWPCluster
from repro.hw.memory import DDR3L, Scratchpad
from repro.hw.power import EnergyAccountant
from repro.sim import Environment


def build_stack(spec, flash_spec=None, **storengine_kwargs):
    """Assemble Flashvisor + Storengine over a (possibly tiny) backbone."""
    env = Environment()
    energy = EnergyAccountant()
    cluster = LWPCluster(env, spec.lwp, energy)
    ddr = DDR3L(env, spec.memory, energy)
    scratchpad = Scratchpad(env, spec.memory, energy)
    backbone = FlashBackbone(env, flash_spec or spec.flash, energy)
    flashvisor = Flashvisor(env, cluster.flashvisor_lwp, backbone, ddr,
                            scratchpad, spec.interconnect.message_queue_latency_s,
                            energy)
    storengine = Storengine(env, cluster.storengine_lwp, flashvisor, backbone,
                            energy, **storengine_kwargs)
    return env, flashvisor, storengine, backbone


def run_for(env, duration):
    env.run(until=env.now + duration)


def test_storengine_flushes_pending_writes(spec):
    env, flashvisor, storengine, backbone = build_stack(spec)
    flashvisor.pending_flush_bytes = 4 * 1024 * 1024
    run_for(env, 1.0)
    assert flashvisor.pending_flush_bytes == 0
    assert storengine.stats.flushed_bytes == 4 * 1024 * 1024
    assert backbone.bulk_bytes_written >= 4 * 1024 * 1024


def test_storengine_journals_periodically(spec):
    env, _flashvisor, storengine, backbone = build_stack(
        spec, journal_interval_s=10e-3)
    run_for(env, 0.1)
    assert storengine.stats.journal_dumps >= 5
    # Nothing else writes: every programmed byte is a two-page snapshot.
    assert backbone.bulk_bytes_written == (storengine.stats.journal_dumps
                                           * 2 * spec.flash.page_bytes)


def test_storengine_stop_halts_background_loop(spec):
    env, _flashvisor, storengine, _backbone = build_stack(spec)
    run_for(env, 0.01)
    storengine.stop()
    run_for(env, 0.1)
    dumps_after_stop = storengine.stats.journal_dumps
    run_for(env, 0.5)
    assert storengine.stats.journal_dumps == dumps_after_stop


def test_storengine_rejects_unknown_victim_policy(spec):
    with pytest.raises(ValueError):
        build_stack(spec, victim_policy="lru")


def test_drain_flushes_everything_synchronously(spec):
    env, flashvisor, storengine, _backbone = build_stack(spec)
    storengine.stop()
    flashvisor.pending_flush_bytes = 24 * 1024 * 1024

    proc = env.process(storengine.drain())
    env.run(until=env.now + 5.0)
    assert proc.triggered
    assert flashvisor.pending_flush_bytes == 0
    assert storengine.stats.flushed_bytes == 24 * 1024 * 1024


def test_gc_reclaims_rows_when_space_runs_low(spec, tiny_flash_spec):
    env, flashvisor, storengine, backbone = build_stack(
        spec, flash_spec=tiny_flash_spec, poll_interval_s=1e-4,
        journal_interval_s=1e3)
    allocator = flashvisor.allocator
    # Fill the device up to the GC threshold with invalidated (stale) data:
    # every group is immediately rewritten, so the old groups are garbage.
    group_bytes = backbone.geometry.page_group_bytes
    writes = 0
    while not allocator.needs_gc():
        flashvisor.translate_write(0, group_bytes)
        writes += 1
        if writes > backbone.geometry.page_groups_total * 2:
            pytest.fail("device never reached the GC threshold")
    assert allocator.needs_gc()
    run_for(env, 5.0)
    assert storengine.stats.gc_invocations > 0
    assert storengine.stats.erased_rows > 0
    assert not allocator.needs_gc()


def test_gc_preserves_valid_data_mappings(spec, tiny_flash_spec):
    env, flashvisor, storengine, backbone = build_stack(
        spec, flash_spec=tiny_flash_spec, poll_interval_s=1e-4,
        journal_interval_s=1e3)
    allocator = flashvisor.allocator
    geometry = backbone.geometry
    group_bytes = geometry.page_group_bytes
    # Write a small amount of live data first (logical groups 0..3).
    live_logical = list(range(4))
    flashvisor.translate_write(0, 4 * group_bytes)
    # Then churn a single logical group until GC kicks in, creating garbage.
    churn_word = 10 * (group_bytes // 4)
    safety = geometry.page_groups_total * 3
    while not allocator.needs_gc() and safety:
        flashvisor.translate_write(churn_word, group_bytes)
        safety -= 1
    run_for(env, 5.0)
    assert storengine.stats.migrated_groups >= 0
    for logical in live_logical:
        assert flashvisor.mapping.lookup(logical) is not None


def test_greedy_victim_policy_supported(spec, tiny_flash_spec):
    env, flashvisor, storengine, backbone = build_stack(
        spec, flash_spec=tiny_flash_spec, poll_interval_s=1e-4,
        journal_interval_s=1e3, victim_policy="greedy")
    allocator = flashvisor.allocator
    group_bytes = backbone.geometry.page_group_bytes
    safety = backbone.geometry.page_groups_total * 3
    while not allocator.needs_gc() and safety:
        flashvisor.translate_write(0, group_bytes)
        safety -= 1
    run_for(env, 5.0)
    assert storengine.stats.gc_invocations > 0
