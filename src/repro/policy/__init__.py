"""Unified policy layer: one registry + serializable specs for all domains.

Every pluggable decision point in the stack — kernel ``scheduler`` on the
device, request ``admission`` at the front-end, tenant-queue ``dispatch``
order, and device ``placement`` in the cluster — resolves through the one
decorator-based registry in this package, and is configured by a
serializable :class:`PolicySpec` (name + params) that hashes into the
experiment cache key like any other config knob.

See ARCHITECTURE.md ("Policy layer") for the registry contract.
"""

from .registry import (
    DOMAIN_MODULES,
    POLICY_DOMAINS,
    build_policy,
    ensure_domain_loaded,
    learned_snapshot,
    policy_class,
    policy_is_learned,
    policy_names,
    register_policy,
    registered_policies,
    resolved_policy_spec,
)
from .spec import PolicySpec

__all__ = [
    "DOMAIN_MODULES",
    "POLICY_DOMAINS",
    "PolicySpec",
    "build_policy",
    "ensure_domain_loaded",
    "learned_snapshot",
    "policy_class",
    "policy_is_learned",
    "policy_names",
    "register_policy",
    "registered_policies",
    "resolved_policy_spec",
]
