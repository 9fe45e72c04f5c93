"""Declarative, serializable platform configuration.

A :class:`PlatformConfig` fully describes one simulated platform: the
system (the ``SIMD`` baseline or one of the four FlashAbacus schedulers),
the hardware specification, workload sizing knobs (instance counts and
input scale), and feature toggles.  Its plain-dict form
(:meth:`to_dict`) gives a stable :meth:`config_hash` that keys the
on-disk experiment cache; configs reach worker processes by pickle.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional

from ..hw.spec import HardwareSpec, prototype_spec
from ..policy import PolicySpec, policy_names

#: The conventional baseline system of the paper (Section 5).
BASELINE_SYSTEM = "SIMD"

#: The four FlashAbacus scheduling policies (Section 4).
FLASHABACUS_SCHEDULERS: List[str] = ["InterSt", "IntraIo", "InterDy", "IntraO3"]


@dataclass(frozen=True)
class PlatformConfig:
    """Everything needed to instantiate one platform and size its workload.

    Frozen (like :class:`HardwareSpec`): configs act as cache identities
    via :meth:`config_hash`, so evolution goes through copies
    (:meth:`with_overrides`), never in-place mutation.

    Attributes
    ----------
    system:
        ``"SIMD"`` or the name of a registered ``scheduler`` policy (the
        paper's four are :data:`FLASHABACUS_SCHEDULERS`).  Schedulers take
        no params, so the name is the whole scheduler selection; a
        param-free :class:`~repro.policy.PolicySpec` is stored as its
        name.
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
        Record both Fig. 15 time series: the power series (15b) and the
        functional-unit series (15a).  They cost memory and report bytes
        on every busy period, so they are off by default; a report run
        without the flag carries ``power_series`` and ``fu_series`` as
        ``None``.  The means (``mean_active_fus``, utilizations) do not
        depend on it.
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
        # Fail here, naming the field, rather than deep in a platform
        # build with a name the caller never wrote.
        scale = self.input_scale
        if not isinstance(scale, (int, float)) or not math.isfinite(scale) \
                or scale <= 0:
            raise ValueError(
                f"input_scale must be a finite number > 0, got {scale!r}")
        # FlashAbacus reserves a Flashvisor and a Storengine LWP (the
        # builder's default); every other LWP is a worker.
        reserved = 2 if self.feature("reserve_management_cores",
                                     not self.is_baseline) else 0
        count = self.effective_spec().lwp.count
        if count - reserved < 1:
            field_name = ("lwp_count" if self.lwp_count is not None
                          else "spec.lwp.count")
            raise ValueError(
                f"{field_name}={count} leaves no worker LWP for "
                f"{self.system} ({reserved} reserved for Flashvisor and "
                f"Storengine); need at least {reserved + 1}")

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

    # ------------------------------------------------------------------ #
    # Serialization                                                        #
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "system": self.system,
            "spec": self.spec.as_dict(),
            "lwp_count": self.lwp_count,
            "instances": self.instances,
            "input_scale": self.input_scale,
            "track_power_series": self.track_power_series,
            "features": dict(self.features),
        }

    def config_hash(self) -> str:
        """Stable short hash of the canonical serialized form.

        Two configs hash equal iff their :meth:`to_dict` forms are equal,
        independent of process, dict ordering, or Python hash seed — which
        is what makes it usable as an on-disk cache key.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
