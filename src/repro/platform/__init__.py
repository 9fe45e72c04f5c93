"""Platform layer: declarative platform description and substrate assembly.

This package sits between the device models (``repro.hw`` / ``repro.flash``
/ ``repro.baseline`` device files) and the two systems built on top of them
(:class:`repro.core.FlashAbacusAccelerator` and
:class:`repro.baseline.BaselineSystem`):

* :class:`PlatformConfig` — a serializable description of one platform
  configuration: which system/scheduler, the hardware spec, instance
  counts, input scale, and feature toggles.  Its stable
  :meth:`~PlatformConfig.config_hash` keys the experiment result cache.
* :class:`PlatformBuilder` — the single place the hardware substrate
  (LWP cluster, DDR3L, scratchpad, PCIe, flash backbone or
  NVMe SSD + host storage stack) is assembled.  Both systems consume the
  :class:`HardwareSubstrate` it produces instead of hand-wiring parts.
* :class:`ClusterConfig` — a serializable fleet description for the
  scale-out layer (:mod:`repro.cluster`): one :class:`PlatformConfig` per
  device plus its placement policy and an optional :class:`FaultSpec`
  health timeline, with its own stable ``config_hash``.
"""

from .config import (
    BASELINE_SYSTEM,
    FLASHABACUS_SCHEDULERS,
    PlatformConfig,
)
from .cluster import (
    HEALTH_STATES,
    ClusterConfig,
    FaultSpec,
)
from .builder import HardwareSubstrate, PlatformBuilder

__all__ = [
    "BASELINE_SYSTEM",
    "FLASHABACUS_SCHEDULERS",
    "PlatformConfig",
    "HEALTH_STATES",
    "ClusterConfig",
    "FaultSpec",
    "HardwareSubstrate",
    "PlatformBuilder",
]
