"""Synthetic workload generator.

Used by the motivation study (Fig. 3b/3c): kernels with a controlled
fraction of serial instructions and a configurable number of parallel
screens, so the Amdahl-style scalability of the multi-kernel execution
model can be measured directly.
"""

from __future__ import annotations

from typing import List

from ..core.kernel import Kernel, Microblock, Screen


def synthetic_kernel(name: str, total_instructions: float, input_bytes: int,
                     serial_fraction: float, parallel_screens: int,
                     ld_st_ratio: float = 0.3, output_bytes: int = 0,
                     app_id: int = 0, instance: int = 0) -> Kernel:
    """A kernel with ``serial_fraction`` of its work in a serial microblock.

    The kernel has (up to) two microblocks: a parallel one carrying
    ``1 - serial_fraction`` of the instructions split into
    ``parallel_screens`` screens, followed by a serial one carrying the
    rest.  Input is read by the first microblock, output written by the
    last, as in the real workloads.
    """
    if not 0.0 <= serial_fraction <= 1.0:
        raise ValueError("serial_fraction must be in [0, 1]")
    if parallel_screens < 1:
        raise ValueError("parallel_screens must be >= 1")
    if total_instructions < 0 or input_bytes < 0 or output_bytes < 0:
        raise ValueError("sizes must be non-negative")

    serial_instr = total_instructions * serial_fraction
    parallel_instr = total_instructions - serial_instr
    microblocks: List[Microblock] = []
    screen_id = 0

    if serial_fraction < 1.0:
        screens = []
        for s in range(parallel_screens):
            screens.append(Screen(
                screen_id=screen_id,
                instructions=parallel_instr / parallel_screens,
                input_bytes=input_bytes // parallel_screens
                + (input_bytes % parallel_screens if s == 0 else 0),
                output_bytes=0,
                ld_st_ratio=ld_st_ratio,
            ))
            screen_id += 1
        microblocks.append(Microblock(index=0, screens=screens, serial=False,
                                      reads_flash=input_bytes > 0,
                                      writes_flash=False))
    if serial_fraction > 0.0 or not microblocks:
        index = len(microblocks)
        microblocks.append(Microblock(
            index=index,
            screens=[Screen(screen_id=screen_id, instructions=serial_instr,
                            input_bytes=input_bytes if not microblocks else 0,
                            output_bytes=output_bytes,
                            ld_st_ratio=ld_st_ratio)],
            serial=True,
            reads_flash=not microblocks and input_bytes > 0,
            writes_flash=output_bytes > 0,
        ))
    else:
        # Fully parallel kernel: let the parallel microblock write output.
        last = microblocks[-1]
        if output_bytes > 0:
            last.screens[0].output_bytes = output_bytes
            microblocks[-1] = Microblock(index=last.index, screens=last.screens,
                                         serial=False,
                                         reads_flash=last.reads_flash,
                                         writes_flash=True)
    return Kernel(name=name, microblocks=microblocks, app_id=app_id,
                  instance=instance)


def serial_sweep_kernels(serial_fraction: float, instances: int,
                         parallel_screens: int,
                         instructions_per_instance: float = 8e9,
                         input_bytes: int = 64 * 1024 * 1024,
                         ld_st_ratio: float = 0.3) -> List[Kernel]:
    """Kernels for one point of the Fig. 3b/3c serial-fraction sweep."""
    return [synthetic_kernel(
        name=f"synthetic-{int(serial_fraction * 100)}pct",
        total_instructions=instructions_per_instance,
        input_bytes=input_bytes,
        serial_fraction=serial_fraction,
        parallel_screens=parallel_screens,
        ld_st_ratio=ld_st_ratio,
        app_id=0, instance=i)
        for i in range(instances)]
