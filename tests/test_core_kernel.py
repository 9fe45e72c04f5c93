"""Unit tests for kernels, microblocks, screens and description tables."""

import pytest

from repro.core.kernel import (
    DATA_SECTION,
    Kernel,
    KernelDescriptionTable,
    Microblock,
    Screen,
    TEXT_SECTION,
    build_kernel,
)


# --------------------------------------------------------------------------- #
# Screen / Microblock validation                                               #
# --------------------------------------------------------------------------- #
def test_screen_validation():
    screen = Screen(screen_id=0, instructions=100, input_bytes=10,
                    output_bytes=5)
    assert (screen.input_bytes, screen.output_bytes) == (10, 5)
    with pytest.raises(ValueError):
        Screen(screen_id=0, instructions=-1)
    with pytest.raises(ValueError):
        Screen(screen_id=0, instructions=1, input_bytes=-1)
    with pytest.raises(ValueError):
        Screen(screen_id=0, instructions=1, ld_st_ratio=2.0)


def test_microblock_aggregates_screen_totals():
    screens = [Screen(screen_id=i, instructions=10, input_bytes=4,
                      output_bytes=2) for i in range(3)]
    mblk = Microblock(index=0, screens=screens)
    assert mblk.instructions == 30
    assert mblk.input_bytes == 12
    assert mblk.output_bytes == 6
    assert len(mblk) == 3


def test_serial_microblock_must_have_single_screen():
    screens = [Screen(screen_id=i, instructions=1) for i in range(2)]
    with pytest.raises(ValueError):
        Microblock(index=0, screens=screens, serial=True)
    with pytest.raises(ValueError):
        Microblock(index=0, screens=[])


# --------------------------------------------------------------------------- #
# Kernel description table                                                     #
# --------------------------------------------------------------------------- #
def test_descriptor_defaults_all_sections():
    table = KernelDescriptionTable(name="k")
    for section in (".text", ".ddr3_arr", ".heap", ".stack"):
        assert section in table.section_bytes


def test_descriptor_image_excludes_data_section():
    table = KernelDescriptionTable(name="k", section_bytes={
        TEXT_SECTION: 100, DATA_SECTION: 10_000, ".heap": 10, ".stack": 10})
    assert table.image_bytes == 120
    assert table.section_bytes[DATA_SECTION] == 10_000


def test_descriptor_rejects_negative_section():
    with pytest.raises(ValueError):
        KernelDescriptionTable(name="k", section_bytes={TEXT_SECTION: -1})


# --------------------------------------------------------------------------- #
# Kernel construction                                                          #
# --------------------------------------------------------------------------- #
def test_kernel_requires_ordered_microblocks():
    screens = [Screen(screen_id=0, instructions=1)]
    good = [Microblock(index=0, screens=screens)]
    Kernel(name="ok", microblocks=good)
    bad = [Microblock(index=1, screens=screens)]
    with pytest.raises(ValueError):
        Kernel(name="bad", microblocks=bad)
    with pytest.raises(ValueError):
        Kernel(name="empty", microblocks=[])


def test_kernel_ids_are_unique():
    screens = lambda: [Screen(screen_id=0, instructions=1)]  # noqa: E731
    k1 = Kernel("a", [Microblock(index=0, screens=screens())])
    k2 = Kernel("b", [Microblock(index=0, screens=screens())])
    assert k1.kernel_id != k2.kernel_id


# --------------------------------------------------------------------------- #
# build_kernel                                                                 #
# --------------------------------------------------------------------------- #
def test_build_kernel_structure_matches_request():
    kernel = build_kernel("test", total_instructions=1e6,
                          input_bytes=1024, output_bytes=256,
                          microblock_count=3, serial_microblocks=1,
                          screens_per_microblock=4)
    assert [m.serial for m in kernel.microblocks] == [False, False, True]
    # Serial microblocks are placed last and have exactly one screen.
    assert kernel.microblocks[-1].serial
    assert len(kernel.microblocks[-1]) == 1
    assert all(len(m) == 4 for m in kernel.microblocks if not m.serial)


def test_build_kernel_conserves_instructions_and_bytes():
    kernel = build_kernel("test", total_instructions=1e6,
                          input_bytes=1000, output_bytes=300,
                          microblock_count=2, serial_microblocks=1,
                          screens_per_microblock=3)
    assert kernel.instructions == pytest.approx(1e6)
    assert kernel.input_bytes == 1000
    assert kernel.output_bytes == 300


def test_build_kernel_first_reads_last_writes_flash():
    kernel = build_kernel("test", total_instructions=1e6,
                          input_bytes=1000, output_bytes=300,
                          microblock_count=3, serial_microblocks=1,
                          screens_per_microblock=2)
    assert kernel.microblocks[0].reads_flash
    assert kernel.microblocks[-1].writes_flash
    assert not kernel.microblocks[1].reads_flash
    assert not kernel.microblocks[1].writes_flash
    assert kernel.microblocks[0].input_bytes == 1000
    assert kernel.microblocks[-1].output_bytes == 300


def test_build_kernel_serial_weight_controls_serial_fraction():
    heavy = build_kernel("heavy", 1e6, 0, 0, microblock_count=2,
                         serial_microblocks=1, screens_per_microblock=2,
                         serial_weight=1.0)
    light = build_kernel("light", 1e6, 0, 0, microblock_count=2,
                         serial_microblocks=1, screens_per_microblock=2,
                         serial_weight=0.25)
    assert heavy.serial_fraction == pytest.approx(0.5)
    assert light.serial_fraction == pytest.approx(0.2)


def test_build_kernel_fully_parallel_has_no_serial_fraction():
    kernel = build_kernel("par", 1e6, 100, 0, microblock_count=1,
                          serial_microblocks=0, screens_per_microblock=4)
    assert kernel.serial_fraction == 0.0
    assert not any(m.serial for m in kernel.microblocks)


def test_build_kernel_screen_count_and_iteration():
    kernel = build_kernel("count", 1e6, 100, 10, microblock_count=2,
                          serial_microblocks=1, screens_per_microblock=5)
    assert [len(m) for m in kernel.microblocks] == [5, 1]
    screen_ids = [s.screen_id for m in kernel.microblocks for s in m.screens]
    assert screen_ids == list(range(6))


def test_build_kernel_validation():
    with pytest.raises(ValueError):
        build_kernel("bad", 1, 0, 0, microblock_count=0,
                     serial_microblocks=0, screens_per_microblock=1)
    with pytest.raises(ValueError):
        build_kernel("bad", 1, 0, 0, microblock_count=1,
                     serial_microblocks=2, screens_per_microblock=1)
    with pytest.raises(ValueError):
        build_kernel("bad", 1, 0, 0, microblock_count=1,
                     serial_microblocks=0, screens_per_microblock=0)
    with pytest.raises(ValueError):
        build_kernel("bad", 1, 0, 0, microblock_count=1,
                     serial_microblocks=0, screens_per_microblock=1,
                     serial_weight=0.0)


def test_kernel_descriptor_data_section_matches_bytes():
    kernel = build_kernel("data", 1e6, 5000, 500, microblock_count=2,
                          serial_microblocks=0, screens_per_microblock=2)
    assert kernel.descriptor.section_bytes[DATA_SECTION] == 5500
