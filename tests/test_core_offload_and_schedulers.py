"""Unit tests for the offload path and the four scheduling policies."""

import pytest

from repro.core.kernel import build_kernel
from repro.core.offload import OffloadController, PowerSleepController
from repro.core.schedulers import (
    DynamicInterKernelScheduler,
    InOrderIntraKernelScheduler,
    OutOfOrderIntraKernelScheduler,
    StaticInterKernelScheduler,
)
from repro.policy import build_policy, registered_policies
from repro.hw.memory import DDR3L
from repro.hw.pcie import PCIeLink
from repro.hw.power import EnergyAccountant
from repro.sim import Environment

from helpers import run_process


def make_kernel(app_id=0, instance=0, mblks=2, serial=1, screens=3):
    return build_kernel(f"k{app_id}.{instance}", total_instructions=1e6,
                        input_bytes=4096, output_bytes=512,
                        microblock_count=mblks, serial_microblocks=serial,
                        screens_per_microblock=screens, app_id=app_id,
                        instance=instance)


# --------------------------------------------------------------------------- #
# Offload path                                                                 #
# --------------------------------------------------------------------------- #
def test_offload_sequence_orders_download_interrupt_boot(spec):
    env = Environment()
    energy = EnergyAccountant()
    pcie = PCIeLink(env, spec.pcie, energy)
    ddr = DDR3L(env, spec.memory, energy)
    controller = OffloadController(env, pcie, ddr,
                                   PowerSleepController(env), energy)
    kernel = make_kernel()

    record = run_process(env, controller.offload_kernel(kernel))
    assert record.downloaded_at < record.interrupt_at < record.ready_at
    assert controller.kernels_offloaded == 1
    assert kernel.kernel_id in controller.boot_address_registers
    assert pcie.bytes_moved == kernel.descriptor.image_bytes
    assert controller.psc.sleep_transitions == 1
    assert controller.psc.wake_transitions == 1


def test_offload_batch_processes_every_kernel(spec):
    env = Environment()
    pcie = PCIeLink(env, spec.pcie)
    ddr = DDR3L(env, spec.memory)
    controller = OffloadController(env, pcie, ddr)
    kernels = [make_kernel(instance=i) for i in range(4)]
    records = run_process(env, controller.offload_batch(kernels))
    assert len(records) == 4
    assert controller.kernels_offloaded == 4


def test_offload_rejects_oversized_kernel_image(spec):
    env = Environment()
    controller = OffloadController(env, PCIeLink(env, spec.pcie),
                                   DDR3L(env, spec.memory))
    kernel = make_kernel()
    kernel.descriptor.section_bytes[".text"] = controller.BAR_REGION_BYTES + 1

    proc = env.process(controller.offload_kernel(kernel))
    env.run()
    assert not proc.ok
    assert isinstance(proc.value, ValueError)


# --------------------------------------------------------------------------- #
# Scheduler factory                                                            #
# --------------------------------------------------------------------------- #
def test_build_scheduler_by_paper_name():
    def build(name, workers):
        return build_policy("scheduler", name, num_workers=workers)

    assert isinstance(build("InterSt", 6), StaticInterKernelScheduler)
    assert isinstance(build("InterDy", 6), DynamicInterKernelScheduler)
    assert isinstance(build("IntraIo", 6), InOrderIntraKernelScheduler)
    assert isinstance(build("IntraO3", 6), OutOfOrderIntraKernelScheduler)
    with pytest.raises(ValueError):
        build("RoundRobin", 6)
    assert set(registered_policies("scheduler")) == {
        "InterSt", "InterDy", "IntraIo", "IntraO3"}


def test_scheduler_requires_workers():
    with pytest.raises(ValueError):
        build_policy("scheduler", "InterDy", num_workers=0)


# --------------------------------------------------------------------------- #
# Static inter-kernel scheduling                                               #
# --------------------------------------------------------------------------- #
def test_static_scheduler_pins_kernels_by_app_number():
    scheduler = StaticInterKernelScheduler(num_workers=4)
    kernels = [make_kernel(app_id=a) for a in (0, 1, 5, 1)]
    scheduler.offload(kernels)
    assert scheduler.pending_for_worker(0) == 1     # app 0
    assert scheduler.pending_for_worker(1) == 3     # apps 1, 1 and 5 (5 % 4)
    # Worker 2 has nothing.
    assert scheduler.next_work(2) is None
    item = scheduler.next_work(1)
    assert item is not None and item.kind == "kernel"
    assert item.kernel.app_id in (1, 5)


def test_static_scheduler_never_migrates_work():
    scheduler = StaticInterKernelScheduler(num_workers=2)
    scheduler.offload([make_kernel(app_id=0), make_kernel(app_id=0)])
    assert scheduler.next_work(1) is None
    assert scheduler.next_work(0) is not None
    assert scheduler.next_work(0) is not None
    assert scheduler.next_work(0) is None


# --------------------------------------------------------------------------- #
# Dynamic inter-kernel scheduling                                              #
# --------------------------------------------------------------------------- #
def test_dynamic_scheduler_hands_kernels_to_any_worker():
    scheduler = DynamicInterKernelScheduler(num_workers=3)
    scheduler.offload([make_kernel(app_id=0), make_kernel(app_id=0)])
    first = scheduler.next_work(2)
    second = scheduler.next_work(0)
    assert first is not None and second is not None
    assert first.kernel is not second.kernel
    assert scheduler.next_work(1) is None
    assert scheduler.queued_kernels == 0


def test_whole_kernel_item_contains_all_screens_in_order():
    scheduler = DynamicInterKernelScheduler(num_workers=1)
    kernel = make_kernel(mblks=3, serial=1, screens=2)
    scheduler.offload([kernel])
    item = scheduler.next_work(0)
    assert len(item) == kernel.screen_count()
    indices = [node.microblock.index for node, _screen in item.units]
    assert indices == sorted(indices)


# --------------------------------------------------------------------------- #
# In-order intra-kernel scheduling                                             #
# --------------------------------------------------------------------------- #
def test_inorder_scheduler_only_dispatches_head_kernels_current_microblock():
    scheduler = InOrderIntraKernelScheduler(num_workers=4)
    first = make_kernel(app_id=0, mblks=2, serial=1, screens=2)
    second = make_kernel(app_id=1, mblks=1, serial=0, screens=2)
    scheduler.offload([first, second])
    items = [scheduler.next_work(w) for w in range(3)]
    dispatched = [i for i in items if i is not None]
    # Only the two screens of the head kernel's first microblock may start;
    # the second kernel must wait even though workers are idle.
    assert len(dispatched) == 2
    assert all(item.kernel is first for item in dispatched)
    assert scheduler.pending_kernels == 2


def test_inorder_scheduler_advances_after_completion():
    scheduler = InOrderIntraKernelScheduler(num_workers=2)
    kernel = make_kernel(mblks=2, serial=1, screens=1)
    scheduler.offload([kernel])
    chain = scheduler.chain.chain_for_kernel(kernel)
    item = scheduler.next_work(0)
    node, screen = item.units[0]
    scheduler.chain.mark_running(screen, 0, 0.0)
    scheduler.chain.mark_done(chain, screen, 1.0)
    follow_up = scheduler.next_work(0)
    assert follow_up is not None
    assert follow_up.units[0][0].microblock.serial


# --------------------------------------------------------------------------- #
# Out-of-order intra-kernel scheduling                                         #
# --------------------------------------------------------------------------- #
def test_ooo_scheduler_borrows_screens_across_kernels():
    scheduler = OutOfOrderIntraKernelScheduler(num_workers=4)
    first = make_kernel(app_id=0, mblks=1, serial=0, screens=1)
    second = make_kernel(app_id=1, mblks=1, serial=0, screens=2)
    scheduler.offload([first, second])
    items = [scheduler.next_work(w) for w in range(3)]
    assert all(item is not None for item in items)
    owners = {item.kernel.kernel_id for item in items}
    assert owners == {first.kernel_id, second.kernel_id}
    assert scheduler.borrowed_dispatches >= 1


def test_ooo_scheduler_respects_microblock_dependencies():
    scheduler = OutOfOrderIntraKernelScheduler(num_workers=8)
    kernel = make_kernel(mblks=2, serial=1, screens=2)
    scheduler.offload([kernel])
    items = []
    while True:
        item = scheduler.next_work(0)
        if item is None:
            break
        items.append(item)
    # Only microblock 0's screens can be dispatched before completion.
    assert len(items) == 2
    assert all(item.units[0][0].microblock.index == 0 for item in items)


def test_scheduler_done_only_after_all_screens_complete():
    scheduler = OutOfOrderIntraKernelScheduler(num_workers=2)
    assert not scheduler.done      # nothing offloaded yet
    kernel = make_kernel(mblks=1, serial=0, screens=1)
    scheduler.offload([kernel])
    assert not scheduler.done
    chain = scheduler.chain.chain_for_kernel(kernel)
    item = scheduler.next_work(0)
    node, screen = item.units[0]
    scheduler.chain.mark_running(screen, 0, 0.0)
    scheduler.chain.mark_done(chain, screen, 1.0)
    assert scheduler.done


def test_dispatch_overheads_ordered_by_scheduler_complexity():
    assert StaticInterKernelScheduler.dispatch_overhead_s \
        <= DynamicInterKernelScheduler.dispatch_overhead_s \
        <= InOrderIntraKernelScheduler.dispatch_overhead_s \
        <= OutOfOrderIntraKernelScheduler.dispatch_overhead_s
