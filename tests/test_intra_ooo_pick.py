"""IntraO3's direct pick equals the sort-based reference rule.

``OutOfOrderIntraKernelScheduler.next_work`` walks the incomplete chains
in ``(offloaded_at, kernel_id)`` order and takes the first ready screen
through a per-node cursor.  The reference below is the rule it
replaced, recomputed from scratch on every call: list every ready
screen, sort by ``(offloaded_at, kernel_id, microblock.index)`` and take
the first.  A dispatch counts as borrowed when its chain is not the
first incomplete chain in ``all_chains()`` order.
"""

from hypothesis import given, settings, strategies as st

from repro.core.execution_chain import ScreenStatus
from repro.core.kernel import build_kernel
from repro.core.schedulers.intra_ooo import OutOfOrderIntraKernelScheduler


def _incomplete(kernel_chain) -> bool:
    return any(screen.status is not ScreenStatus.DONE
               for node in kernel_chain.nodes for screen in node.screens)


def ready_screens(chain):
    """Every screen that may start now: the pending, unclaimed screens of
    each chain's first incomplete node, in ``all_chains()`` order."""
    ready = []
    for kernel_chain in chain.all_chains():
        node = next((n for n in kernel_chain.nodes
                     if any(s.status is not ScreenStatus.DONE
                            for s in n.screens)), None)
        if node is None:
            continue
        for screen in node.screens:
            if screen.status is ScreenStatus.PENDING and not screen.claimed:
                ready.append((kernel_chain, node, screen))
    return ready


def reference_pick(chain):
    """(pick, borrowed) under the sort-based rule, from chain state only."""
    ready = ready_screens(chain)
    if not ready:
        return None, False
    ready.sort(key=lambda entry: (entry[0].offloaded_at,
                                  entry[0].kernel.kernel_id,
                                  entry[1].microblock.index))
    pick = ready[0]
    oldest = next(c for c in chain.all_chains() if _incomplete(c))
    return pick, pick[0] is not oldest


kernel_shapes = st.lists(
    st.tuples(st.integers(0, 3),             # app id
              st.integers(1, 4),             # microblocks
              st.integers(0, 2),             # serial microblocks (capped)
              st.integers(1, 4),             # screens per parallel block
              st.sampled_from([0.0, 1.0, 2.0])),   # offload time (ties)
    min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(kernel_shapes, st.data())
def test_next_work_matches_sorted_reference(shapes, data):
    kernels = []
    for i, (app, blocks, serial, screens, at) in enumerate(shapes):
        kernel = build_kernel(f"k{i}", 1e6, 4096, 512,
                              microblock_count=blocks,
                              serial_microblocks=min(serial, blocks),
                              screens_per_microblock=screens, app_id=app)
        kernels.append((kernel, at))
    # Offload in a drawn order, so kernel ids and offload times disagree.
    order = data.draw(st.permutations(range(len(kernels))))
    scheduler = OutOfOrderIntraKernelScheduler(num_workers=4)
    chain = scheduler.chain
    pending_offloads = [kernels[i] for i in order]
    claimed, running = [], []
    ops = data.draw(st.lists(
        st.sampled_from(["offload", "pick", "pick", "claim", "run", "done"]),
        min_size=1, max_size=60))
    # Drain to completion after the drawn prefix, picking eagerly.
    ops = ops + ["offload"] * len(pending_offloads) \
        + ["pick", "run", "done"] * 200

    def pick() -> None:
        expected, borrowed = reference_pick(chain)
        before = scheduler.borrowed_dispatches
        item = scheduler.next_work(0)
        if expected is None:
            assert item is None
            return
        assert item is not None
        (node, screen), = item.units
        assert item.chain is expected[0]
        assert node is expected[1]
        assert screen is expected[2]
        assert scheduler.borrowed_dispatches - before == int(borrowed)
        claimed.append((item.chain, node, screen))

    for op in ops:
        if op == "offload" and pending_offloads:
            kernel, at = pending_offloads.pop(0)
            scheduler.offload([kernel], now=at)
        elif op == "pick":
            pick()
        elif op == "claim":
            # Claim a ready screen behind the scheduler's back, leaving
            # partly claimed nodes for the cursor to skip.
            ready = ready_screens(chain)
            if ready:
                index = data.draw(st.integers(0, len(ready) - 1))
                kernel_chain, node, screen = ready[index]
                screen.claimed = True
                claimed.append((kernel_chain, node, screen))
        elif op == "run" and claimed:
            kernel_chain, node, screen = claimed.pop(0)
            chain.mark_running(screen, 0, 0.0)
            running.append((kernel_chain, node, screen))
        elif op == "done" and running:
            kernel_chain, node, screen = running.pop(0)
            chain.mark_done(kernel_chain, node, screen, 1.0)
    assert not pending_offloads
    assert chain.complete
    assert scheduler.done
    assert scheduler.next_work(0) is None
