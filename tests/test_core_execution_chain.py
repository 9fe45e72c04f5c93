"""Unit tests for the multi-app execution chain (Figure 8)."""

import pytest

from repro.core.execution_chain import MultiAppExecutionChain, ScreenStatus
from repro.core.kernel import build_kernel


def make_kernel(name="k", app_id=0, mblks=2, serial=1, screens=2):
    return build_kernel(name, total_instructions=1000, input_bytes=100,
                        output_bytes=10, microblock_count=mblks,
                        serial_microblocks=serial,
                        screens_per_microblock=screens, app_id=app_id)


def claim_ready(chain):
    """Claim, oldest first, every screen that may start now."""
    ready = []
    while (pick := chain.oldest_ready()) is not None:
        pick[2].claimed = True
        ready.append(pick)
    return ready


def test_chain_groups_kernels_by_app():
    chain = MultiAppExecutionChain()
    chain.add_kernel(make_kernel(app_id=0))
    chain.add_kernel(make_kernel(app_id=1))
    chain.add_kernel(make_kernel(app_id=0))
    assert chain.apps() == [0, 1]
    assert [c.kernel.app_id for c in chain.all_chains()] == [0, 0, 1]


def test_ready_screens_limited_to_current_microblock():
    chain = MultiAppExecutionChain()
    kernel = make_kernel(mblks=2, serial=1, screens=3)
    chain.add_kernel(kernel)
    ready = claim_ready(chain)
    # Only microblock 0's three screens are ready; the serial microblock
    # must wait.
    assert len(ready) == 3
    assert all(node.microblock.index == 0 for _c, node, _s in ready)


def test_next_microblock_unlocks_after_previous_completes():
    chain = MultiAppExecutionChain()
    kernel = make_kernel(mblks=2, serial=1, screens=2)
    kernel_chain = chain.add_kernel(kernel)
    first_ready = claim_ready(chain)
    for _chain, node, screen in first_ready:
        chain.mark_running(screen, lwp_id=0, now=1.0)
        chain.mark_done(kernel_chain, node, screen, now=2.0)
    second_ready = claim_ready(chain)
    assert len(second_ready) == 1
    assert second_ready[0][1].microblock.serial


def test_completion_sets_latency():
    chain = MultiAppExecutionChain()
    kernel = make_kernel(mblks=1, serial=0, screens=2)
    kernel_chain = chain.add_kernel(kernel, now=1.0)
    for _c, node, screen in claim_ready(chain):
        chain.mark_running(screen, lwp_id=0, now=2.0)
        chain.mark_done(kernel_chain, node, screen, now=5.0)
    assert chain.complete
    assert kernel_chain.completed_at == 5.0
    assert kernel_chain.latency == pytest.approx(4.0)
    assert chain.kernel_latencies() == [pytest.approx(4.0)]
    assert chain.completion_times() == [5.0]


def test_mark_running_requires_pending():
    chain = MultiAppExecutionChain()
    chain.add_kernel(make_kernel(mblks=1, serial=0, screens=1))
    _, _, screen = chain.oldest_ready()
    chain.mark_running(screen, lwp_id=0, now=0.0)
    with pytest.raises(ValueError):
        chain.mark_running(screen, lwp_id=1, now=0.0)


def test_mark_done_requires_running():
    chain = MultiAppExecutionChain()
    kernel_chain = chain.add_kernel(make_kernel(mblks=1, serial=0, screens=1))
    _, node, screen = chain.oldest_ready()
    with pytest.raises(ValueError):
        chain.mark_done(kernel_chain, node, screen, now=0.0)


def test_claimed_screens_not_listed_as_ready():
    chain = MultiAppExecutionChain()
    chain.add_kernel(make_kernel(mblks=1, serial=0, screens=3))
    _, _, first = chain.oldest_ready()
    first.claimed = True
    rest = [screen for _c, _n, screen in claim_ready(chain)]
    assert len(rest) == 2
    assert first not in rest


def test_ready_spans_multiple_kernels_and_apps():
    chain = MultiAppExecutionChain()
    chain.add_kernel(make_kernel(app_id=0, mblks=1, serial=0, screens=2))
    chain.add_kernel(make_kernel(app_id=1, mblks=1, serial=0, screens=2))
    ready = claim_ready(chain)
    apps = {c.kernel.app_id for c, _n, _s in ready}
    assert apps == {0, 1}
    assert len(ready) == 4


def test_screen_status_lifecycle():
    chain = MultiAppExecutionChain()
    kernel_chain = chain.add_kernel(make_kernel(mblks=1, serial=0, screens=1))
    _, node, screen = chain.oldest_ready()
    assert screen.status is ScreenStatus.PENDING
    chain.mark_running(screen, lwp_id=4, now=1.5)
    assert screen.status is ScreenStatus.RUNNING
    assert screen.lwp_id == 4
    assert screen.started_at == 1.5
    chain.mark_done(kernel_chain, node, screen, now=2.5)
    assert screen.status is ScreenStatus.DONE
    assert screen.completed_at == 2.5
    assert node.complete
