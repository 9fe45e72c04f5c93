"""Kernel representation: screens, microblocks, kernels, description tables.

Section 4 of the paper: a *kernel* is an executable object described by a
kernel description table (a variation of ELF) whose sections (.text,
.ddr3_arr data section, .heap, .stack) are placed in each LWP's L2 cache,
except the data section which Flashvisor maps to flash.  A kernel's body is
a sequence of *microblocks* whose executions must be serialized; inside a
microblock, *screens* operate on disjoint slices of the input vector and can
run on different LWPs concurrently (Section 4.2, Figure 6).

This module is purely descriptive — execution timing lives in the
accelerator/baseline engines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

_kernel_ids = itertools.count()


@dataclass
class Screen:
    """A slice of a microblock that can execute on one LWP independently."""

    screen_id: int
    instructions: float
    input_bytes: int = 0
    output_bytes: int = 0
    ld_st_ratio: float = 0.3

    def __post_init__(self) -> None:
        if self.instructions < 0:
            raise ValueError("instructions must be non-negative")
        if self.input_bytes < 0 or self.output_bytes < 0:
            raise ValueError("byte counts must be non-negative")
        if not 0.0 <= self.ld_st_ratio <= 1.0:
            raise ValueError("ld_st_ratio must be in [0, 1]")


@dataclass
class Microblock:
    """A group of code segments whose execution depends on its inputs.

    ``serial`` microblocks contain exactly one screen and cannot be split;
    parallel microblocks may spread their screens across LWPs.
    """

    index: int
    screens: List[Screen] = field(default_factory=list)
    serial: bool = False
    reads_flash: bool = False
    writes_flash: bool = False

    def __post_init__(self) -> None:
        if self.serial and len(self.screens) > 1:
            raise ValueError("a serial microblock has exactly one screen")
        if not self.screens:
            raise ValueError("a microblock needs at least one screen")

    @property
    def instructions(self) -> float:
        return sum(s.instructions for s in self.screens)

    @property
    def input_bytes(self) -> int:
        return sum(s.input_bytes for s in self.screens)

    @property
    def output_bytes(self) -> int:
        return sum(s.output_bytes for s in self.screens)

    def __len__(self) -> int:
        return len(self.screens)


# Section names used by the kernel description table (Section 4, "Kernel").
TEXT_SECTION = ".text"
DATA_SECTION = ".ddr3_arr"
HEAP_SECTION = ".heap"
STACK_SECTION = ".stack"


@dataclass
class KernelDescriptionTable:
    """ELF-like executable object describing an offloaded kernel.

    The table records section sizes and where each section is placed: the
    data section is flash-mapped through Flashvisor, everything else lives
    in the target LWP's L2 cache.
    """

    name: str
    section_bytes: Dict[str, int] = field(default_factory=dict)
    flash_base_word: int = 0
    entry_point: int = 0

    def __post_init__(self) -> None:
        for section in (TEXT_SECTION, DATA_SECTION, HEAP_SECTION, STACK_SECTION):
            self.section_bytes.setdefault(section, 0)
        for name, size in self.section_bytes.items():
            if size < 0:
                raise ValueError(f"section {name!r} has negative size")

    @property
    def image_bytes(self) -> int:
        """Bytes transferred over PCIe when the kernel is offloaded."""
        return sum(size for name, size in self.section_bytes.items()
                   if name != DATA_SECTION)


class Kernel:
    """One offloadable kernel: a description table plus its microblocks."""

    def __init__(self, name: str, microblocks: List[Microblock],
                 app_id: int = 0, instance: int = 0,
                 descriptor: Optional[KernelDescriptionTable] = None,
                 text_bytes: int = 64 * 1024):
        if not microblocks:
            raise ValueError("a kernel needs at least one microblock")
        self.kernel_id = next(_kernel_ids)
        self.name = name
        self.app_id = app_id
        self.instance = instance
        self.microblocks = list(microblocks)
        for expected, mblk in enumerate(self.microblocks):
            if mblk.index != expected:
                raise ValueError("microblock indices must be 0..n-1 in order")
        data_bytes = sum(m.input_bytes + m.output_bytes for m in microblocks)
        if descriptor is None:
            descriptor = KernelDescriptionTable(
                name=name,
                section_bytes={
                    TEXT_SECTION: text_bytes,
                    DATA_SECTION: data_bytes,
                    HEAP_SECTION: 16 * 1024,
                    STACK_SECTION: 16 * 1024,
                },
            )
        self.descriptor = descriptor

    # -- aggregate characteristics -----------------------------------------
    @property
    def input_bytes(self) -> int:
        return sum(m.input_bytes for m in self.microblocks)

    @property
    def output_bytes(self) -> int:
        return sum(m.output_bytes for m in self.microblocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Kernel({self.name!r}, app={self.app_id}, "
                f"instance={self.instance}, mblks={len(self.microblocks)})")


def build_kernel(name: str, total_instructions: float, input_bytes: int,
                 output_bytes: int, microblock_count: int,
                 serial_microblocks: int, screens_per_microblock: int,
                 ld_st_ratio: float = 0.3, app_id: int = 0,
                 instance: int = 0, serial_weight: float = 0.35) -> Kernel:
    """Construct a kernel from aggregate workload characteristics.

    Instructions are split across microblocks with serial microblocks
    (placed last, as the paper's examples put reduction/epilogue steps at
    the end) receiving a ``serial_weight`` share relative to parallel
    microblocks — serial blocks are typically short epilogue/reduction
    loops, not equal halves of the kernel.  The first microblock reads the
    kernel's input from flash and the last one writes the output back;
    intermediate microblocks exchange data through DDR3L only.
    """
    if microblock_count < 1:
        raise ValueError("microblock_count must be >= 1")
    if not 0 <= serial_microblocks <= microblock_count:
        raise ValueError("serial_microblocks out of range")
    if screens_per_microblock < 1:
        raise ValueError("screens_per_microblock must be >= 1")
    if serial_weight <= 0:
        raise ValueError("serial_weight must be positive")

    parallel_count = microblock_count - serial_microblocks
    total_weight = parallel_count * 1.0 + serial_microblocks * serial_weight
    microblocks: List[Microblock] = []
    screen_seq = itertools.count()
    for index in range(microblock_count):
        serial = index >= microblock_count - serial_microblocks
        weight = serial_weight if serial else 1.0
        per_mblk_instr = total_instructions * weight / total_weight
        reads_flash = index == 0
        writes_flash = index == microblock_count - 1
        mblk_input = input_bytes if reads_flash else 0
        mblk_output = output_bytes if writes_flash else 0
        count = 1 if serial else screens_per_microblock
        screens = []
        for s in range(count):
            screens.append(Screen(
                screen_id=next(screen_seq),
                instructions=per_mblk_instr / count,
                input_bytes=mblk_input // count + (mblk_input % count if s == 0 else 0),
                output_bytes=mblk_output // count + (mblk_output % count if s == 0 else 0),
                ld_st_ratio=ld_st_ratio,
            ))
        microblocks.append(Microblock(index=index, screens=screens,
                                      serial=serial,
                                      reads_flash=reads_flash,
                                      writes_flash=writes_flash))
    return Kernel(name=name, microblocks=microblocks, app_id=app_id,
                  instance=instance)
