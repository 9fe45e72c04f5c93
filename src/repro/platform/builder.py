"""Single place the hardware substrate is assembled.

Historically ``baseline/system.py`` and ``core/accelerator.py`` each
hand-wired their own copies of the shared hardware (LWP cluster, DDR3L,
PCIe, power monitoring) plus their private parts (flash backbone
vs. NVMe SSD and host storage stack).  :class:`PlatformBuilder`
centralizes that wiring: it turns a :class:`~repro.platform.PlatformConfig`
into a :class:`HardwareSubstrate`, and both systems build their software
layers (Flashvisor, Storengine, schedulers, OpenMP driver) on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from ..sim.engine import Environment
from ..hw.lwp import LWPCluster
from ..hw.memory import DDR3L, Scratchpad
from ..hw.pcie import PCIeLink
from ..hw.power import EnergyAccountant, PowerMonitor
from ..hw.spec import HardwareSpec
from ..flash.backbone import FlashBackbone
from .config import BASELINE_SYSTEM, PlatformConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..baseline.host import HostCPU
    from ..baseline.ssd import NVMeSSD
    from ..baseline.storage_stack import HostStorageStack


#: Resolved hardware templates keyed by ``config.config_hash()``.
#: :class:`~repro.hw.spec.HardwareSpec` is a frozen dataclass tree, so
#: one resolved template is safely shared by every substrate built from
#: an equivalent config.  The payoff is in long-lived worker processes
#: (the orchestrator's persistent pool, the epoch-parallel cluster
#: workers): a sweep builds thousands of substrates from a handful of
#: distinct configs, and resolution work is paid once per distinct
#: config per process instead of once per substrate.
_TEMPLATE_CACHE: dict = {}


def cached_effective_spec(config: PlatformConfig) -> HardwareSpec:
    """``config.effective_spec()``, memoized by the config's stable hash."""
    key = config.config_hash()
    spec = _TEMPLATE_CACHE.get(key)
    if spec is None:
        spec = config.effective_spec()
        _TEMPLATE_CACHE[key] = spec
    return spec


def clear_template_cache() -> None:
    """Drop every cached hardware template (tests, memory pressure)."""
    _TEMPLATE_CACHE.clear()


@dataclass
class HardwareSubstrate:
    """The assembled hardware platform one system runs on.

    The common parts (environment, energy accounting, LWP cluster, DDR3L,
    PCIe) are always present; the FlashAbacus-only parts (scratchpad,
    flash backbone) and the baseline-only parts (NVMe SSD, host
    CPU, host storage stack) are ``None`` on the other side.
    """

    config: PlatformConfig
    env: Environment
    spec: HardwareSpec
    energy: EnergyAccountant
    power_monitor: Optional[PowerMonitor]
    cluster: LWPCluster
    ddr: DDR3L
    pcie: PCIeLink
    # FlashAbacus side
    scratchpad: Optional[Scratchpad] = None
    backbone: Optional[FlashBackbone] = None
    # Baseline (SIMD) side
    ssd: Optional["NVMeSSD"] = None
    host: Optional["HostCPU"] = None
    stack: Optional["HostStorageStack"] = None


class PlatformBuilder:
    """Assembles a :class:`HardwareSubstrate` from a :class:`PlatformConfig`."""

    def __init__(self, config: Optional[PlatformConfig] = None,
                 env: Optional[Environment] = None):
        self.config = config if config is not None else PlatformConfig()
        self.env = env if env is not None else Environment()

    # ------------------------------------------------------------------ #
    # Common parts                                                         #
    # ------------------------------------------------------------------ #
    def _common(self, reserve_management_cores: bool):
        spec = cached_effective_spec(self.config)
        energy = EnergyAccountant()
        monitor = (PowerMonitor(self.env)
                   if self.config.track_power_series else None)
        reserve = self.config.feature("reserve_management_cores",
                                      reserve_management_cores)
        cluster = LWPCluster(self.env, spec.lwp, energy, monitor,
                             reserve_management_cores=reserve)
        ddr = DDR3L(self.env, spec.memory, energy)
        pcie = PCIeLink(self.env, spec.pcie, energy)
        return spec, energy, monitor, cluster, ddr, pcie

    # ------------------------------------------------------------------ #
    # The two platform flavors                                             #
    # ------------------------------------------------------------------ #
    def build_flashabacus_substrate(self) -> HardwareSubstrate:
        """LWPs + DDR3L + scratchpad + PCIe + flash backbone."""
        spec, energy, monitor, cluster, ddr, pcie = self._common(
            reserve_management_cores=True)
        return HardwareSubstrate(
            config=self.config,
            env=self.env,
            spec=spec,
            energy=energy,
            power_monitor=monitor,
            cluster=cluster,
            ddr=ddr,
            pcie=pcie,
            scratchpad=Scratchpad(self.env, spec.memory, energy),
            backbone=FlashBackbone(self.env, spec.flash, energy,
                                   power_monitor=monitor),
        )

    def build_baseline_substrate(self) -> HardwareSubstrate:
        """LWPs + DDR3L + PCIe + NVMe SSD + host CPU + host storage stack."""
        # Imported lazily: ``repro.baseline`` imports this module to build
        # its substrate, so a top-level import would be circular.
        from ..baseline.host import HostCPU
        from ..baseline.ssd import NVMeSSD
        from ..baseline.storage_stack import HostStorageStack

        # The baseline reserves no Flashvisor/Storengine cores: every LWP
        # is an OpenMP worker.
        spec, energy, monitor, cluster, ddr, pcie = self._common(
            reserve_management_cores=False)
        return HardwareSubstrate(
            config=self.config,
            env=self.env,
            spec=spec,
            energy=energy,
            power_monitor=monitor,
            cluster=cluster,
            ddr=ddr,
            pcie=pcie,
            ssd=NVMeSSD(self.env, spec.ssd, energy),
            host=HostCPU(self.env, spec.host, energy),
            stack=HostStorageStack(self.env, spec.host, energy),
        )

    def build(self) -> HardwareSubstrate:
        """Build the substrate flavor ``config.system`` calls for."""
        if self.config.is_baseline:
            return self.build_baseline_substrate()
        return self.build_flashabacus_substrate()


def _check_flavor(config: PlatformConfig, baseline: bool) -> None:
    if baseline != config.is_baseline:
        if baseline:
            raise ValueError("BaselineSystem needs a SIMD config, got "
                             f"{config.system!r}")
        raise ValueError("FlashAbacusAccelerator needs a FlashAbacus "
                         "config, not the SIMD baseline")


def resolve_substrate(baseline: bool,
                      env: Optional[Environment] = None,
                      config: Optional[PlatformConfig] = None
                      ) -> HardwareSubstrate:
    """Shared front-end of the two system constructors.

    An omitted ``config`` is the default platform of the constructor's
    flavour.  The flavour is checked *before* paying for construction,
    then the builder assembles the substrate.
    """
    if config is None:
        config = PlatformConfig(system=BASELINE_SYSTEM) if baseline \
            else PlatformConfig()
    _check_flavor(config, baseline)
    return PlatformBuilder(config, env=env).build()
