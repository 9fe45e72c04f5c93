#!/usr/bin/env python3
"""Peek inside Flashvisor and Storengine: translation, locking, and GC.

This example drives the flash-virtualization layer directly (no kernels, no
schedulers) to illustrate the mechanisms of Section 4.3:

* page-group address translation out of the scratchpad-resident table,
* the range lock that lets concurrent readers share a data section while
  writers are exclusive,
* Storengine's background write-buffer flushing and round-robin garbage
  collection on a deliberately tiny flash backbone so GC actually triggers.

Run with:  python examples/flash_virtualization.py
"""

from dataclasses import replace

from repro import PlatformConfig
from repro.core.flashvisor import Flashvisor
from repro.core.kernel import build_kernel
from repro.core.storengine import Storengine
from repro.hw.spec import FlashSpec, prototype_spec
from repro.platform import PlatformBuilder


def build_platform(flash_spec):
    # The substrate (LWPs, DDR3L, scratchpad, backbone) comes
    # from the shared builder; only the flash geometry is customized, and
    # the Flashvisor/Storengine software is wired by hand so this example
    # can use aggressive poll/journal intervals.
    config = PlatformConfig(
        system="IntraO3",
        spec=replace(prototype_spec(), flash=flash_spec))
    sub = PlatformBuilder(config).build_flashabacus_substrate()
    flashvisor = Flashvisor(sub.env, sub.cluster.flashvisor_lwp, sub.backbone,
                            sub.ddr, sub.scratchpad,
                            sub.spec.interconnect.message_queue_latency_s,
                            sub.energy)
    storengine = Storengine(sub.env, sub.cluster.storengine_lwp, flashvisor,
                            sub.backbone, sub.energy, poll_interval_s=1e-4,
                            journal_interval_s=50e-3)
    return sub.env, flashvisor, storengine, sub.backbone


def demo_translation_and_locking() -> None:
    print("=== Address translation and range locking (prototype backbone) ===")
    env, flashvisor, storengine, backbone = build_platform(
        prototype_spec().flash)
    print(f"mapping table footprint: "
          f"{flashvisor.mapping_table_bytes() / 2**20:.1f} MiB "
          f"(fits the 4 MiB scratchpad)")

    kernel_a = build_kernel("reader-A", 1e6, 8 << 20, 1 << 20, 1, 0, 1)
    kernel_b = build_kernel("reader-B", 1e6, 8 << 20, 1 << 20, 1, 0, 1)

    def reader(env, kernel, label):
        yield from flashvisor.map_for_read(kernel, 0, 8 << 20)
        print(f"  t={env.now * 1e3:7.2f} ms  {label}: 8 MiB data section "
              f"mapped and loaded into DDR3L")

    def writer(env, kernel):
        yield from flashvisor.map_for_write(kernel, 0, 4 << 20)
        print(f"  t={env.now * 1e3:7.2f} ms  writer: 4 MiB buffered in DDR3L "
              f"(waited for the readers' range lock)")

    env.process(reader(env, kernel_a, "reader-A"))
    env.process(reader(env, kernel_b, "reader-B"))
    env.process(writer(env, build_kernel("writer", 1e6, 0, 4 << 20, 1, 0, 1)))
    env.run(until=1.0)
    print(f"  range-lock conflicts observed: "
          f"{flashvisor.stats.lock_conflicts}")
    print(f"  page groups translated: {flashvisor.stats.translations}\n")
    storengine.stop()


def demo_garbage_collection() -> None:
    print("=== Background GC on a miniature backbone ===")
    tiny = FlashSpec(channels=2, packages_per_channel=1, dies_per_package=1,
                     planes_per_die=2, page_bytes=4096, pages_per_block=8,
                     blocks_per_die=16, page_read_latency_s=10e-6,
                     page_program_latency_s=100e-6,
                     block_erase_latency_s=200e-6,
                     channel_bus_bandwidth=400 << 20, overprovision=0.2)
    env, flashvisor, storengine, backbone = build_platform(tiny)
    group_bytes = backbone.geometry.page_group_bytes
    print(f"  capacity: {backbone.geometry.capacity_bytes >> 10} KiB, "
          f"{backbone.geometry.page_groups_total} page groups")

    # Keep a little live data, then overwrite one hot logical group until
    # the free pool shrinks into the reserved region.
    flashvisor.translate_write(0, 4 * group_bytes)
    rewrites = 0
    while not flashvisor.allocator.needs_gc():
        flashvisor.translate_write(8 * (group_bytes // 4), group_bytes)
        rewrites += 1
    print(f"  {rewrites} hot-group rewrites until GC threshold")
    env.run(until=2.0)
    stats = storengine.stats
    print(f"  GC invocations: {stats.gc_invocations}, "
          f"rows erased: {stats.erased_rows}, "
          f"valid groups migrated: {stats.migrated_groups}")
    print(f"  journal dumps: {stats.journal_dumps}, "
          f"free groups now: {flashvisor.allocator.free_group_count}")
    # Live data survived garbage collection.
    survivors = sum(1 for g in range(4)
                    if flashvisor.mapping.lookup(g) is not None)
    print(f"  live logical groups still mapped: {survivors}/4")
    storengine.stop()


if __name__ == "__main__":
    demo_translation_and_locking()
    demo_garbage_collection()
