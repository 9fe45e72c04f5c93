"""Declarative, serializable cluster (fleet) configuration.

A :class:`ClusterConfig` describes a scale-out fleet of independently-built
devices: one :class:`~repro.platform.PlatformConfig` per device, the
placement policy the cluster dispatcher routes requests with, the
degraded-capacity derating, and an optional
health timeline of :class:`FaultSpec` events (a device marked slow or
failed mid-run).  Like :class:`PlatformConfig` it round-trips losslessly
through plain dicts, so :meth:`ClusterConfig.config_hash` can key the
experiment result cache for cluster runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from ..policy import PolicySpec, policy_names
from .config import PlatformConfig

#: Device health states a :class:`FaultSpec` may switch a device to.
HEALTH_STATES: Tuple[str, ...] = ("healthy", "degraded", "failed")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled health transition of one device.

    At simulation time ``time_s`` device ``device`` switches to ``state``:
    ``degraded`` derates its dispatch capacity (a slow board), ``failed``
    takes it out of rotation and reroutes its queued requests, and
    ``healthy`` returns it to full service.
    """

    time_s: float
    device: int
    state: str

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("fault time_s must be non-negative")
        if self.device < 0:
            raise ValueError("fault device index must be non-negative")
        if self.state not in HEALTH_STATES:
            raise ValueError(f"unknown health state {self.state!r}; "
                             f"choose from {HEALTH_STATES}")

    def to_list(self) -> list:
        return [self.time_s, self.device, self.state]

    @classmethod
    def from_list(cls, data) -> "FaultSpec":
        time_s, device, state = data
        return cls(time_s=float(time_s), device=int(device),
                   state=str(state))


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to instantiate one fleet of serving devices.

    Frozen like :class:`PlatformConfig`: cluster configs act as cache
    identities via :meth:`config_hash`, so evolution goes through copies
    (:meth:`with_overrides` / :meth:`scaled_to`).

    Attributes
    ----------
    devices:
        One :class:`PlatformConfig` per device.  Devices are independent
        products of :class:`~repro.platform.PlatformBuilder`; mixing
        schedulers (or even SIMD boards) in one fleet is allowed.
    placement:
        The ``placement`` policy the fleet routes with, stored as a
        :class:`~repro.policy.PolicySpec`; a name string or a
        ``{"name": ..., "params": ...}`` dict is coerced.  Policy knobs
        are spec params, e.g. ``tenant_affinity``'s ``salt``.
    degraded_capacity_factor:
        Fraction of a device's dispatch capacity that survives a
        ``degraded`` health transition (slow-board model).
    faults:
        Health timeline applied during the run, time-ordered by the
        session.
    autoscaler_spec:
        Optional :class:`~repro.policy.PolicySpec` naming an
        ``autoscaler`` policy.  ``None`` (the default) means a static
        fleet, and the field plus every elastic knob below is omitted
        from serialization when unset.
    min_devices / max_devices:
        Fleet-size bounds the autoscaler is clamped to.  ``None`` means
        1 and ``len(devices)`` respectively; ``devices`` itself is the
        *initially provisioned* fleet, and scale-up past it clones the
        first device's config (the device template).
    warmup_s:
        How long a freshly provisioned device is held out of placement
        (it burns energy and device-seconds while warming — the cost of
        reacting late).
    autoscale_interval_s:
        Cadence of the autoscaler's control tick.
    """

    devices: Tuple[PlatformConfig, ...]
    placement: PolicySpec = PolicySpec("round_robin")
    degraded_capacity_factor: float = 0.5
    faults: Tuple[FaultSpec, ...] = ()
    autoscaler_spec: Optional[PolicySpec] = None
    min_devices: Optional[int] = None
    max_devices: Optional[int] = None
    warmup_s: float = 0.0
    autoscale_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("a cluster needs at least one device")
        placement = PolicySpec.coerce(self.placement)
        object.__setattr__(self, "placement", placement)
        if placement.name not in policy_names("placement"):
            raise ValueError(
                f"unknown placement {placement.name!r}; choose from "
                f"{policy_names('placement')}")
        if not 0.0 < self.degraded_capacity_factor <= 1.0:
            raise ValueError(
                "degraded_capacity_factor must be in (0, 1]")
        seen_faults = set()
        for fault in self.faults:
            if fault.device >= len(self.devices):
                raise ValueError(
                    f"fault names device {fault.device}, but the cluster "
                    f"has only {len(self.devices)} devices")
            key = (fault.time_s, fault.device)
            if key in seen_faults:
                raise ValueError(
                    f"duplicate fault for device {fault.device} at "
                    f"t={fault.time_s}: which state wins would depend on "
                    f"timeline order — merge or re-time the entries")
            seen_faults.add(key)
        if self.autoscaler_spec is not None:
            spec = PolicySpec.coerce(self.autoscaler_spec)
            object.__setattr__(self, "autoscaler_spec", spec)
            if spec.name not in policy_names("autoscaler"):
                raise ValueError(
                    f"unknown autoscaler {spec.name!r}; choose from "
                    f"{policy_names('autoscaler')}")
            if self.min_devices is not None and self.min_devices < 1:
                raise ValueError("min_devices must be >= 1")
            if self.effective_min_devices > len(self.devices):
                raise ValueError(
                    "min_devices exceeds the initially provisioned fleet")
            if self.effective_max_devices < len(self.devices):
                raise ValueError(
                    "max_devices is below the initially provisioned fleet")
            if self.warmup_s < 0:
                raise ValueError("warmup_s must be non-negative")
            if self.autoscale_interval_s <= 0:
                raise ValueError("autoscale_interval_s must be positive")
        elif (self.min_devices is not None or self.max_devices is not None
              or self.warmup_s != 0.0 or self.autoscale_interval_s != 1.0):
            raise ValueError(
                "elastic knobs (min_devices/max_devices/warmup_s/"
                "autoscale_interval_s) require an autoscaler_spec")

    # ------------------------------------------------------------------ #
    # Factories                                                           #
    # ------------------------------------------------------------------ #
    @classmethod
    def homogeneous(cls, count: int, device: PlatformConfig,
                    **kwargs: Any) -> "ClusterConfig":
        """A fleet of ``count`` identical devices."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return cls(devices=tuple(device for _ in range(count)), **kwargs)

    def scaled_to(self, count: int) -> "ClusterConfig":
        """Copy of this cluster resized to ``count`` devices.

        Grows by repeating the first device's config; shrinking keeps the
        prefix.  Faults naming devices beyond the new size are dropped.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if count <= len(self.devices):
            devices = self.devices[:count]
        else:
            devices = self.devices + tuple(
                self.devices[0] for _ in range(count - len(self.devices)))
        faults = tuple(f for f in self.faults if f.device < count)
        return replace(self, devices=devices, faults=faults)

    def with_overrides(self, **kwargs: Any) -> "ClusterConfig":
        """Copy of this cluster with ``kwargs`` fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------ #
    # Derived properties                                                   #
    # ------------------------------------------------------------------ #
    @property
    def device_count(self) -> int:
        return len(self.devices)

    @property
    def elastic(self) -> bool:
        """Whether this cluster runs with an autoscaler control loop."""
        return self.autoscaler_spec is not None

    @property
    def effective_min_devices(self) -> int:
        return 1 if self.min_devices is None else self.min_devices

    @property
    def effective_max_devices(self) -> int:
        return (len(self.devices) if self.max_devices is None
                else self.max_devices)

    @property
    def device_template(self) -> PlatformConfig:
        """The config scale-up clones for devices beyond ``devices``."""
        return self.devices[0]

    def device_config(self, index: int) -> PlatformConfig:
        """Config of device ``index``, template-cloned past the fleet."""
        if index < len(self.devices):
            return self.devices[index]
        return self.device_template

    @property
    def label(self) -> str:
        """Registry/cache identity prefix, e.g. ``cluster-4xIntraO3``."""
        systems = {config.system for config in self.devices}
        flavor = self.devices[0].system if len(systems) == 1 else "mixed"
        return f"cluster-{len(self.devices)}x{flavor}"

    def __hash__(self) -> int:
        return hash(self.config_hash())

    # ------------------------------------------------------------------ #
    # Serialization                                                        #
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        data = {
            "devices": [config.to_dict() for config in self.devices],
            "placement": self.placement.to_dict(),
            "degraded_capacity_factor": self.degraded_capacity_factor,
            "faults": [fault.to_list() for fault in self.faults],
        }
        if self.autoscaler_spec is not None:
            data["autoscaler_spec"] = self.autoscaler_spec.to_dict()
            data["min_devices"] = self.effective_min_devices
            data["max_devices"] = self.effective_max_devices
            data["warmup_s"] = self.warmup_s
            data["autoscale_interval_s"] = self.autoscale_interval_s
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClusterConfig":
        autoscaler = data.get("autoscaler_spec")
        elastic: Dict[str, Any] = {}
        if autoscaler is not None:
            elastic = {
                "autoscaler_spec": PolicySpec.from_dict(autoscaler),
                "min_devices": data.get("min_devices"),
                "max_devices": data.get("max_devices"),
                "warmup_s": float(data.get("warmup_s", 0.0)),
                "autoscale_interval_s": float(
                    data.get("autoscale_interval_s", 1.0)),
            }
        return cls(
            devices=tuple(PlatformConfig.from_dict(d)
                          for d in data.get("devices", [])),
            placement=PolicySpec.from_dict(
                data.get("placement", {"name": "round_robin"})),
            degraded_capacity_factor=float(
                data.get("degraded_capacity_factor", 0.5)),
            faults=tuple(FaultSpec.from_list(f)
                         for f in data.get("faults", [])),
            **elastic,
        )

    def config_hash(self) -> str:
        """Stable short hash of the canonical serialized form."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
