"""Declarative, serializable platform configuration.

A :class:`PlatformConfig` fully describes one simulated platform: the
system (the ``SIMD`` baseline or one of the four FlashAbacus schedulers),
the hardware specification, workload sizing knobs (instance counts and
input scale), and feature toggles.  Because it round-trips losslessly
through plain dicts (:meth:`to_dict` / :meth:`from_dict`), a stable
:meth:`config_hash` can key the on-disk experiment cache and configs can
be shipped to worker processes or stored next to results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional

from ..hw.spec import (
    FlashSpec,
    HardwareSpec,
    HostSpec,
    InterconnectSpec,
    LWPSpec,
    MemorySpec,
    PCIeSpec,
    SSDSpec,
    prototype_spec,
)
from ..policy import PolicySpec, policy_names

#: The conventional baseline system of the paper (Section 5).
BASELINE_SYSTEM = "SIMD"

#: The four FlashAbacus scheduling policies (Section 4).
FLASHABACUS_SCHEDULERS: List[str] = ["InterSt", "IntraIo", "InterDy", "IntraO3"]

_SUB_SPECS = {
    "lwp": LWPSpec,
    "memory": MemorySpec,
    "interconnect": InterconnectSpec,
    "pcie": PCIeSpec,
    "flash": FlashSpec,
    "host": HostSpec,
    "ssd": SSDSpec,
}


def spec_to_dict(spec: HardwareSpec) -> Dict[str, Dict[str, Any]]:
    """Serialize a :class:`HardwareSpec` to nested plain dicts."""
    return spec.as_dict()


def _sub_spec_from_dict(cls, data: Dict[str, Any]):
    known = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in known})


def spec_from_dict(data: Dict[str, Any]) -> HardwareSpec:
    """Rebuild a :class:`HardwareSpec` from :func:`spec_to_dict` output.

    Unknown keys are ignored so configs written by newer revisions still
    load (the config hash, not this loader, decides cache identity).
    """
    kwargs = {}
    for name, cls in _SUB_SPECS.items():
        if name in data:
            kwargs[name] = _sub_spec_from_dict(cls, data[name])
    return HardwareSpec(**kwargs)


@dataclass(frozen=True)
class PlatformConfig:
    """Everything needed to instantiate one platform and size its workload.

    Frozen (like :class:`HardwareSpec`): configs act as cache identities
    via :meth:`config_hash`, so evolution goes through copies
    (:meth:`with_overrides` / :meth:`merged`), never in-place mutation.

    Attributes
    ----------
    system:
        ``"SIMD"`` or the name of a registered ``scheduler`` policy (the
        paper's four are :data:`FLASHABACUS_SCHEDULERS`).  Schedulers take
        no params, so the name is the whole scheduler selection; a
        param-free :class:`~repro.policy.PolicySpec` or spec dict is
        stored as its name.
    spec:
        The hardware specification (Table 1 prototype by default).
    lwp_count:
        Optional override of the LWP count (used by ablations and the
        motivation sweeps); ``None`` keeps ``spec.lwp.count``.
    instances:
        Workload sizing: instances per workload (homogeneous/real-world)
        or instances per kernel (heterogeneous mixes).  ``None`` lets each
        experiment use its paper default.
    input_scale:
        Proportional shrink of the data sets; every reported ratio is
        invariant to it.
    track_power_series:
        Record the Fig. 15 power/FU time series (adds overhead).
    features:
        Free-form feature toggles for system-specific behavior, e.g.
        ``{"reserve_management_cores": False}``.
    """

    system: str = "IntraO3"
    spec: HardwareSpec = field(default_factory=prototype_spec)
    lwp_count: Optional[int] = None
    instances: Optional[int] = None
    input_scale: float = 1.0
    track_power_series: bool = False
    features: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.system, str):
            spec = PolicySpec.coerce(self.system)
            if spec.params:
                raise ValueError(
                    f"schedulers take no params, got {spec.to_dict()}; "
                    f"name the system alone")
            object.__setattr__(self, "system", spec.name)
        # The paper's four schedulers are checked statically so the common
        # path never touches the registry; the policy_names() fallback is
        # what lets a config name any *additionally* registered scheduler
        # (the registry imports its built-ins lazily on first lookup).
        if self.system != BASELINE_SYSTEM \
                and self.system not in FLASHABACUS_SCHEDULERS \
                and self.system not in policy_names("scheduler"):
            raise ValueError(
                f"unknown system {self.system!r}; choose {BASELINE_SYSTEM} "
                f"or a registered scheduler "
                f"({policy_names('scheduler')})")
        # Deep-freeze the toggles: a config is a cache identity, so no
        # field may be mutable in place (the dataclass itself is frozen).
        object.__setattr__(self, "features",
                           MappingProxyType(dict(self.features)))

    def __hash__(self) -> int:
        # The generated hash would choke on the mapping field; the content
        # hash is consistent with field-wise __eq__.
        return hash(self.config_hash())

    # Mapping proxies do not pickle; ship the plain dict and re-freeze.
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["features"] = dict(state["features"])
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        state["features"] = MappingProxyType(dict(state["features"]))
        self.__dict__.update(state)

    # ------------------------------------------------------------------ #
    # Derived properties                                                   #
    # ------------------------------------------------------------------ #
    @property
    def is_baseline(self) -> bool:
        return self.system == BASELINE_SYSTEM

    def effective_spec(self) -> HardwareSpec:
        """The hardware spec with the ``lwp_count`` override applied."""
        if self.lwp_count is None:
            return self.spec
        return replace(self.spec, lwp=replace(self.spec.lwp,
                                              count=self.lwp_count))

    def feature(self, name: str, default: Any = None) -> Any:
        return self.features.get(name, default)

    def with_overrides(self, **kwargs: Any) -> "PlatformConfig":
        """Copy of this config with dataclass fields replaced."""
        return replace(self, **kwargs)

    def merged(self, system: Optional[str] = None,
               spec: Optional[HardwareSpec] = None,
               lwp_count: Optional[int] = None,
               track_power_series: bool = False) -> "PlatformConfig":
        """Copy with explicit (non-default) arguments layered on top.

        The shared reconciliation used wherever a config meets individual
        keyword arguments (``run_system`` and the two system constructors):
        an explicit value wins over the config field, an omitted one keeps
        it.  Note the one-way ``track_power_series`` contract: ``False`` is
        indistinguishable from "not passed", so it cannot switch a config's
        ``True`` off.
        """
        config = self
        if system is not None and system != config.system:
            config = replace(config, system=system)
        if spec is not None:
            config = replace(config, spec=spec)
        if lwp_count is not None:
            config = replace(config, lwp_count=lwp_count)
        if track_power_series and not config.track_power_series:
            config = replace(config, track_power_series=True)
        return config

    # ------------------------------------------------------------------ #
    # Serialization                                                        #
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "system": self.system,
            "spec": spec_to_dict(self.spec),
            "lwp_count": self.lwp_count,
            "instances": self.instances,
            "input_scale": self.input_scale,
            "track_power_series": self.track_power_series,
            "features": dict(self.features),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PlatformConfig":
        return cls(
            system=data.get("system", "IntraO3"),
            spec=spec_from_dict(data.get("spec", {})),
            lwp_count=data.get("lwp_count"),
            instances=data.get("instances"),
            input_scale=data.get("input_scale", 1.0),
            track_power_series=data.get("track_power_series", False),
            features=dict(data.get("features", {})),
        )

    def config_hash(self) -> str:
        """Stable short hash of the canonical serialized form.

        Two configs hash equal iff their :meth:`to_dict` forms are equal,
        independent of process, dict ordering, or Python hash seed — which
        is what makes it usable as an on-disk cache key.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
