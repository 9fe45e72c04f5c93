"""A pinned differential for Storengine's garbage collection.

Twelve GC-heavy runs, on 2- and 4-channel miniature backbones, with
both victim policies and with sequential and random rewrites.  Each
run's state is folded into one sha256: the clock, Storengine's stats,
the energy breakdown, the backbone's byte and operation counters, the
mapping table, the free rows, and the GC counters after every write.
The digests were taken from the per-page controller, channel and die
model that the backbone's closed-form page-group timing replaced; a
timing change anywhere on the GC path moves them.
"""

import dataclasses
import hashlib
import json
import random
from dataclasses import replace

import pytest

from repro.core.flashvisor import Flashvisor
from repro.core.storengine import Storengine
from repro.flash.backbone import FlashBackbone
from repro.hw.lwp import LWPCluster
from repro.hw.memory import DDR3L, Scratchpad
from repro.hw.power import EnergyAccountant
from repro.sim import Environment

PACE_S = 2e-4

#: (channels, victim policy, rewrite order) -> sha256 of the run's state.
#: A rewrite order is "seq" or the seed of a random order.  Sequential
#: rewrites leave every victim row fully invalid, so both policies reach
#: the same state with no migrations; random ones migrate 34-47 groups.
DIGESTS = {
    (2, "round_robin", "seq"):
        "8205a3bec56c636d58f89057efde57a09299d8dd1c4a57191ab493711f582417",
    (2, "round_robin", 1):
        "313fd82dd589f09075566cab2a81556c18ea4c8faa7d8b5805921430719488fb",
    (2, "round_robin", 2):
        "a24d710327b230628838e32cf77c5293944c8e48b189fbf236e37ef2d30cbaaa",
    (2, "greedy", "seq"):
        "8205a3bec56c636d58f89057efde57a09299d8dd1c4a57191ab493711f582417",
    (2, "greedy", 1):
        "1cadb8ef9631629378126cc6c29b96f1353d261dc610c26a6c70ba6d10c95f64",
    (2, "greedy", 2):
        "6b5208910243a0074a57f6d646fe846b77cb04b38a1eecda1ae90100ea780180",
    (4, "round_robin", "seq"):
        "6a36abfd6fa9a17fd615ebfb7cd34fc90b837f03b4dc50ecdf4eb660b475b05f",
    (4, "round_robin", 1):
        "3a0e6e857ced5ae075bae59686c254cf0913a529f6f5a4c7bed701544087e525",
    (4, "round_robin", 2):
        "254c532b2b6d78bba313b263a760cec4156a94f1f47f814af27fe40705e06726",
    (4, "greedy", "seq"):
        "6a36abfd6fa9a17fd615ebfb7cd34fc90b837f03b4dc50ecdf4eb660b475b05f",
    (4, "greedy", 1):
        "31a9cadac81f595ca10d9efdfdb4106fca1a7a72ec6ebed0340b64c30d13e0f6",
    (4, "greedy", 2):
        "6f2fe393c76acd6427fccbaf3937be1b2611dc9b7e6318b48071ca5d30583ca6",
}


def gc_heavy_run(flash_spec, spec, victim_policy, order):
    env = Environment()
    energy = EnergyAccountant()
    cluster = LWPCluster(env, spec.lwp, energy)
    ddr = DDR3L(env, spec.memory, energy)
    scratchpad = Scratchpad(env, spec.memory, energy)
    backbone = FlashBackbone(env, flash_spec, energy)
    flashvisor = Flashvisor(env, cluster.flashvisor_lwp, backbone, ddr,
                            scratchpad,
                            spec.interconnect.message_queue_latency_s, energy)
    storengine = Storengine(env, cluster.storengine_lwp, flashvisor, backbone,
                            energy, poll_interval_s=1e-4,
                            journal_interval_s=1e3,
                            victim_policy=victim_policy)
    geometry = backbone.geometry
    group_bytes = geometry.page_group_bytes
    span = geometry.page_groups_total // 3
    rounds = geometry.page_groups_total * 5
    rng = None if order == "seq" else random.Random(order)
    after_each_write = []

    def writer():
        stats = storengine.stats
        for i in range(rounds):
            logical = i % span if rng is None else rng.randrange(span)
            flashvisor.translate_write(logical * (group_bytes // 4),
                                       group_bytes)
            after_each_write.append((env.now, stats.gc_invocations,
                                     stats.migrated_groups,
                                     stats.erased_rows))
            yield env.timeout(PACE_S)

    proc = env.process(writer())
    env.run(until=rounds * PACE_S + 1.0)
    assert proc.triggered and proc.ok
    mapping = flashvisor.mapping
    stats = storengine.stats
    # Two counters the digests were taken with no longer exist; each was
    # another counter times a constant: a journal dump programs two pages,
    # and GC erases one block row per erase.
    state = {
        "now": env.now,
        "stats": {**dataclasses.asdict(stats),
                  "journal_bytes": (stats.journal_dumps * 2
                                    * flash_spec.page_bytes)},
        "energy": energy.breakdown.as_dict(),
        "bytes": [backbone.bytes_read(), backbone.bytes_written()],
        "ops": [backbone.page_group_reads, backbone.page_group_writes,
                stats.erased_rows],
        "mapping": [mapping.lookup(g)
                    for g in range(geometry.page_groups_total)],
        "free_rows": list(flashvisor.allocator.free_rows),
        "after_each_write": after_each_write,
    }
    digest = hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()).hexdigest()
    return digest, stats


CASES = [(channels, policy, order)
         for channels in (2, 4)
         for policy in ("round_robin", "greedy")
         for order in ("seq", 1, 2)]


@pytest.mark.parametrize("channels,victim_policy,order", CASES)
def test_gc_heavy_run_matches_its_pinned_digest(
        spec, tiny_flash_spec, channels, victim_policy, order):
    flash_spec = replace(tiny_flash_spec, channels=channels)
    digest, stats = gc_heavy_run(flash_spec, spec, victim_policy, order)
    assert stats.gc_invocations >= 20
    assert digest == DIGESTS[(channels, victim_policy, order)]
