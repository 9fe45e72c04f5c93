"""Serializable policy selection: a name plus a params dict.

A :class:`PolicySpec` is how configurations *refer to* a policy without
holding the (stateful, unserializable) policy object itself: the registry
name plus the constructor parameters.  Its plain-dict form
(:meth:`PolicySpec.to_dict`) is folded into the serving-scenario and
cluster-config dicts, so a policy selection keys the experiment result
cache exactly like any other knob.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Mapping, Union


@dataclass(frozen=True)
class PolicySpec:
    """One policy selection: registry ``name`` + constructor ``params``.

    Frozen and deep-frozen (the params mapping is wrapped read-only):
    specs are embedded in cache-identity configs, so no field may be
    mutable in place.  Params must be JSON-serializable plain data —
    the canonical JSON form (sorted keys, no whitespace) is the content
    identity the experiment cache keys on, and it is computed eagerly so
    a non-serializable param fails at construction, not deep inside a
    sweep.  Equality and hashing both use the canonical form, so the
    eq/hash contract holds by construction (two specs are equal iff they
    serialize identically).
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("a policy spec needs a non-empty name string")
        object.__setattr__(self, "params",
                           MappingProxyType(dict(self.params)))
        try:
            canonical = json.dumps(self.to_dict(), sort_keys=True,
                                   separators=(",", ":"))
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"policy spec params must be JSON-serializable plain "
                f"data (they key the experiment cache): {exc}") from None
        object.__setattr__(self, "_canonical", canonical)

    # Mapping proxies do not pickle; ship the plain dict and re-freeze
    # (specs cross the orchestrator's multiprocessing pool inside
    # configs and scenarios).
    def __getstate__(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(name=state["name"], params=state["params"])

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, PolicySpec):
            return NotImplemented
        return self._canonical == other._canonical

    def __hash__(self) -> int:
        return hash(self._canonical)

    # ------------------------------------------------------------------ #
    # Serialization                                                       #
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def coerce(cls, value: Union["PolicySpec", str]) -> "PolicySpec":
        """Accept the two spellings a policy selection arrives in.

        A :class:`PolicySpec` passes through and a bare string becomes a
        parameterless spec, so every API taking a policy accepts both.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(name=value)
        raise TypeError(f"cannot interpret {value!r} as a policy spec; "
                        f"pass a PolicySpec or a name string")

    def config_hash(self) -> str:
        """Stable short hash of the canonical form (cache-key style)."""
        return hashlib.sha256(self._canonical.encode("utf-8")) \
            .hexdigest()[:16]
