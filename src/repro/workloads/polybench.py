"""PolyBench kernel builders (the 14 workloads of Table 2).

Each builder converts the descriptor-level characteristics of
:mod:`repro.workloads.characteristics` into a concrete
:class:`~repro.core.kernel.Kernel`: microblocks in order, serial
microblocks as single screens, parallel microblocks split into a number of
screens chosen by the caller (typically the number of worker LWPs).
"""

from __future__ import annotations

from typing import List

from ..core.app import Application
from ..core.kernel import Kernel, build_kernel
from .characteristics import WorkloadCharacteristics, lookup

DEFAULT_SCREENS_PER_MICROBLOCK = 6


def build_workload_kernel(characteristics: WorkloadCharacteristics,
                          app_id: int = 0, instance: int = 0,
                          screens_per_microblock: int = DEFAULT_SCREENS_PER_MICROBLOCK,
                          input_scale: float = 1.0) -> Kernel:
    """Build one kernel instance from a Table 2 row.

    ``input_scale`` shrinks (or grows) the per-instance data set, which the
    tests use to keep simulations fast while preserving every ratio that
    drives the scheduling behaviour.
    """
    if input_scale <= 0:
        raise ValueError("input_scale must be positive")
    input_bytes = int(characteristics.input_bytes * input_scale)
    output_bytes = int(characteristics.output_bytes * input_scale)
    instructions = characteristics.instructions * input_scale
    return build_kernel(
        name=characteristics.name,
        total_instructions=instructions,
        input_bytes=input_bytes,
        output_bytes=output_bytes,
        microblock_count=characteristics.microblocks,
        serial_microblocks=characteristics.serial_microblocks,
        screens_per_microblock=screens_per_microblock,
        ld_st_ratio=characteristics.ld_st_ratio,
        app_id=app_id,
        instance=instance,
    )


def polybench_application(name: str, app_id: int = 0,
                          screens_per_microblock: int = DEFAULT_SCREENS_PER_MICROBLOCK,
                          input_scale: float = 1.0) -> Application:
    """Wrap one PolyBench workload as an :class:`Application` factory."""
    characteristics = lookup(name)

    def factory(app: int, instance: int) -> Kernel:
        return build_workload_kernel(characteristics, app_id=app,
                                     instance=instance,
                                     screens_per_microblock=screens_per_microblock,
                                     input_scale=input_scale)

    return Application(name=characteristics.name, app_id=app_id,
                       kernel_factories=[factory])


def homogeneous_workload(name: str, instances: int = 6,
                         screens_per_microblock: int = DEFAULT_SCREENS_PER_MICROBLOCK,
                         input_scale: float = 1.0) -> List[Kernel]:
    """The paper's homogeneous setup: N instances of one kernel (Fig. 10a)."""
    app = polybench_application(name, app_id=0,
                                screens_per_microblock=screens_per_microblock,
                                input_scale=input_scale)
    return app.instantiate(instances)
