"""Headline numbers (abstract) and ablation studies beyond the paper.

The ablations exercise the design choices DESIGN.md calls out:
* garbage-collection victim policy (round-robin vs. greedy),
* range-lock contention between kernels sharing a flash region,
* screen-count scaling of the intra-kernel schedulers.
"""

from repro import PlatformConfig
from repro.core import FlashAbacusAccelerator
from repro.eval import (
    format_table,
    headline_summary,
    improvement_pct,
    run_system,
)
from repro.workloads import homogeneous_workload

from bench_common import BENCH_INPUT_SCALE, BENCH_ORCHESTRATOR, run_once


def test_headline_throughput_and_energy(benchmark):
    """Abstract: +127% bandwidth, -78.4% energy vs. conventional acceleration."""
    summary = run_once(benchmark, headline_summary,
                       workloads=("ATAX", "BICG", "MVT", "GESUM", "SYRK"),
                       input_scale=BENCH_INPUT_SCALE,
                       orchestrator=BENCH_ORCHESTRATOR)
    gain_pct = improvement_pct(summary["mean_throughput_gain"], 1.0)
    saving_pct = summary["mean_energy_saving"] * 100.0
    print("\nHeadline reproduction (IntraO3 vs SIMD)")
    print(format_table(["metric", "paper", "measured"], [
        ("throughput improvement (%)", 127.0, gain_pct),
        ("energy reduction (%)", 78.4, saving_pct),
    ]))
    assert gain_pct > 80.0
    assert saving_pct > 50.0


def test_ablation_gc_victim_policy(benchmark):
    """Ablation: round-robin (paper) vs. greedy victim selection for GC."""
    from repro.core.flashvisor import Flashvisor
    from repro.core.storengine import Storengine
    from repro.flash.backbone import FlashBackbone
    from repro.hw import DDR3L, EnergyAccountant, LWPCluster, Scratchpad
    from repro.hw.spec import FlashSpec, prototype_spec
    from repro.sim import Environment

    tiny = FlashSpec(channels=2, packages_per_channel=1, dies_per_package=1,
                     planes_per_die=2, page_bytes=4096, pages_per_block=8,
                     blocks_per_die=16, page_read_latency_s=10e-6,
                     page_program_latency_s=100e-6,
                     block_erase_latency_s=200e-6,
                     channel_bus_bandwidth=400 * 1024 * 1024,
                     overprovision=0.2)

    def run_policy(policy):
        env = Environment()
        spec = prototype_spec()
        energy = EnergyAccountant()
        cluster = LWPCluster(env, spec.lwp, energy)
        backbone = FlashBackbone(env, tiny, energy)
        flashvisor = Flashvisor(env, cluster.flashvisor_lwp, backbone,
                                DDR3L(env, spec.memory, energy),
                                Scratchpad(env, spec.memory, energy),
                                spec.interconnect.message_queue_latency_s,
                                energy)
        storengine = Storengine(env, cluster.storengine_lwp, flashvisor,
                                backbone, energy, poll_interval_s=1e-4,
                                journal_interval_s=1e3, victim_policy=policy)
        # Churn one hot logical region so garbage accumulates, with a small
        # set of cold live groups that GC has to migrate.
        group_bytes = backbone.geometry.page_group_bytes
        flashvisor.translate_write(0, 8 * group_bytes)
        for _ in range(backbone.geometry.page_groups_total):
            flashvisor.translate_write(16 * (group_bytes // 4), group_bytes)
            if flashvisor.allocator.needs_gc():
                break
        env.run(until=env.now + 2.0)
        return storengine.stats.migrated_groups, storengine.stats.erased_rows

    def both():
        return run_policy("round_robin"), run_policy("greedy")

    (rr_migrated, rr_erased), (greedy_migrated, greedy_erased) = \
        run_once(benchmark, both)
    print("\nAblation: GC victim policy")
    print(format_table(["policy", "migrated groups", "erased rows"], [
        ("round_robin (paper)", rr_migrated, rr_erased),
        ("greedy", greedy_migrated, greedy_erased),
    ]))
    assert rr_erased > 0 and greedy_erased > 0
    # Greedy picks emptier victims, so it never migrates more valid data
    # than round-robin for the same churn pattern.
    assert greedy_migrated <= rr_migrated


def test_ablation_screen_count(benchmark):
    """Ablation: how many screens a parallel microblock is split into."""
    def sweep():
        results = {}
        for screens in (1, 2, 6, 12):
            kernels = homogeneous_workload(
                "MVT", instances=6, screens_per_microblock=screens,
                input_scale=BENCH_INPUT_SCALE)
            report = run_system(PlatformConfig(system="IntraO3"), kernels,
                                "MVT")
            results[screens] = report.throughput_mb_per_s
        return results

    results = run_once(benchmark, sweep)
    print("\nAblation: screens per parallel microblock (IntraO3, MVT)")
    print(format_table(["screens", "MB/s"],
                       [(k, v) for k, v in results.items()]))
    # More screens than one enables intra-kernel parallelism; going beyond
    # the worker count should not help much but must not break anything.
    assert results[6] >= results[1]
    assert results[12] > 0


def test_ablation_range_lock_contention(benchmark):
    """Ablation: writers forced onto one flash region serialize via the lock."""
    def contended_run():
        # Out-of-order intra-kernel scheduling executes many screens
        # concurrently; forcing every kernel's output region on top of the
        # shared input region makes write mappings collide with the long
        # read mappings of other screens, so the range lock must arbitrate.
        accelerator = FlashAbacusAccelerator()
        kernels = homogeneous_workload("MVT", instances=6,
                                       input_scale=BENCH_INPUT_SCALE)
        accelerator.address_space.output_region = lambda num_bytes: 0
        accelerator.address_space.input_region = lambda name, num_bytes: 0
        report = accelerator.run_workload(kernels, "MVT-contended")
        return report, accelerator.flashvisor.stats.lock_conflicts

    report, conflicts = run_once(benchmark, contended_run)
    print("\nAblation: range-lock contention (shared output region)")
    print(format_table(["metric", "value"], [
        ("lock conflicts", conflicts),
        ("makespan (s)", report.makespan_s),
    ]))
    assert conflicts > 0
    assert len(report.completion_times) == 6
