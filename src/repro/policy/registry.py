"""The single policy registry behind every pluggable decision point.

Five layers of the stack make a pluggable decision per unit of work —
which kernel runs next on the device (``scheduler``), whether a request
may enter a tenant queue (``admission``), which tenant queue the
front-end serves next (``dispatch``), which device shard a cluster
routes a request to (``placement``), and how many devices an elastic
fleet should hold right now (``autoscaler``).  Before this module each
family had
its own lookup idiom (a module dict, an if/elif factory, a hardcoded
loop, a name tuple); now every policy anywhere is one registered class,
addressable by ``(domain, name)`` and instantiable from a serializable
:class:`~repro.policy.spec.PolicySpec`:

    @register_policy("placement", "join_shortest_queue")
    class JoinShortestQueuePlacement(PlacementPolicy):
        ...

    policy = build_policy("placement", PolicySpec("join_shortest_queue"),
                          device_count=4)

Built-in policies register themselves when their home module is
imported; :func:`build_policy` / :func:`policy_class` import that module
lazily (:data:`DOMAIN_MODULES`), so looking a policy up never requires
the caller to know where it lives — and the registry module itself
imports nothing from the rest of ``repro``, so every layer may depend on
it without cycles.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type

from .spec import PolicySpec

#: The five policy domains, one per pluggable decision point in the stack.
POLICY_DOMAINS = ("scheduler", "admission", "dispatch", "placement",
                  "autoscaler")

#: Where each domain's built-in policies register themselves; imported
#: lazily on first lookup so the registry stays import-cycle-free.  A
#: domain may list several home modules — the learned species
#: (:mod:`repro.policy.learned`) registers admission/dispatch/placement
#: policies alongside the static built-ins.
DOMAIN_MODULES: Dict[str, Tuple[str, ...]] = {
    "scheduler": ("repro.core.schedulers",),
    "admission": ("repro.serve.admission", "repro.policy.learned"),
    "dispatch": ("repro.serve.dispatch", "repro.policy.learned"),
    "placement": ("repro.cluster.placement", "repro.policy.learned"),
    "autoscaler": ("repro.cluster.autoscale",),
}

_REGISTRY: Dict[str, Dict[str, type]] = {d: {} for d in POLICY_DOMAINS}


def _check_domain(domain: str) -> None:
    if domain not in _REGISTRY:
        raise ValueError(f"unknown policy domain {domain!r}; "
                         f"choose from {sorted(_REGISTRY)}")


def register_policy(domain: str,
                    name: Optional[str] = None) -> Callable[[type], type]:
    """Class decorator: record the policy under ``(domain, name)``.

    ``name`` defaults to the class's ``name`` attribute.  Registering two
    different classes under one key is an error; re-registering the same
    class — same module and qualified name, e.g. on module reload, which
    creates a fresh class object — replaces the entry silently.  The
    decorator stamps ``policy_domain`` / ``policy_name`` onto the class
    so an instance can always say what registry entry produced it.
    """
    _check_domain(domain)

    def decorator(cls: type) -> type:
        policy_name = name if name is not None else getattr(cls, "name", None)
        if not policy_name or not isinstance(policy_name, str):
            raise ValueError(
                f"policy class {cls.__name__} needs a name: pass one to "
                f"register_policy() or set a class-level 'name' attribute")
        existing = _REGISTRY[domain].get(policy_name)
        if existing is not None and existing is not cls \
                and (existing.__module__, existing.__qualname__) \
                != (cls.__module__, cls.__qualname__):
            raise ValueError(
                f"{domain} policy {policy_name!r} is already registered "
                f"for {existing.__name__}")
        _REGISTRY[domain][policy_name] = cls
        cls.policy_domain = domain
        cls.policy_name = policy_name
        return cls

    return decorator


def ensure_domain_loaded(domain: str) -> None:
    """Import the modules that register ``domain``'s built-in policies."""
    _check_domain(domain)
    for module in DOMAIN_MODULES.get(domain, ()):
        importlib.import_module(module)


def policy_names(domain: str) -> List[str]:
    """Sorted names registered under ``domain`` (built-ins included)."""
    ensure_domain_loaded(domain)
    return sorted(_REGISTRY[domain])


def policy_class(domain: str, name: str) -> Type[Any]:
    """The class registered under ``(domain, name)``.

    Raises :class:`ValueError` naming the sorted valid choices when the
    name is unknown — every mistyped policy string anywhere in the stack
    funnels through here and gets the same actionable message.
    """
    ensure_domain_loaded(domain)
    try:
        return _REGISTRY[domain][name]
    except KeyError:
        raise ValueError(
            f"unknown {domain} policy {name!r}; "
            f"choose from {sorted(_REGISTRY[domain])}") from None


def _constructor_params(cls: type):
    """(accepted keyword names, accepts-arbitrary-kwargs) of ``cls``."""
    if cls.__init__ is object.__init__:
        # No constructor of its own: object.__init__'s (*args, **kwargs)
        # signature is a lie — it accepts nothing.
        return set(), False
    signature = inspect.signature(cls.__init__)
    accepted = set()
    var_keyword = False
    for parameter in signature.parameters.values():
        if parameter.name == "self":
            continue
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            var_keyword = True
        elif parameter.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                                inspect.Parameter.KEYWORD_ONLY):
            accepted.add(parameter.name)
    return accepted, var_keyword


def build_policy(domain: str, spec: Any, **context: Any) -> Any:
    """Instantiate the policy ``spec`` names, merging call-site context.

    ``spec`` may be a :class:`PolicySpec` or a bare name string
    (:meth:`PolicySpec.coerce`).
    ``context`` carries values only the call site knows (the device count
    a placement policy routes over, a scheduler's worker count, default
    dispatch weights); each context key is passed through only when the
    policy's constructor *names* it (never smuggled through a
    ``**kwargs`` catch-all), and an explicit spec param always wins over
    context.  Unknown spec params raise with the sorted list of
    parameters the policy does accept; a constructor with ``**kwargs``
    opts out of that validation for spec params only.
    """
    spec = PolicySpec.coerce(spec)
    cls = policy_class(domain, spec.name)
    accepted, var_keyword = _constructor_params(cls)
    kwargs: Dict[str, Any] = {
        key: value for key, value in context.items() if key in accepted}
    if not var_keyword:
        unknown = sorted(set(spec.params) - accepted)
        if unknown:
            raise ValueError(
                f"unknown parameter{'s' if len(unknown) > 1 else ''} "
                f"{unknown} for {domain} policy {spec.name!r}; "
                f"valid parameters: {sorted(accepted)}")
    kwargs.update(spec.params)
    return cls(**kwargs)


def policy_is_learned(domain: str, spec: Any) -> bool:
    """Whether ``spec`` names a learned (feedback-driven) policy.

    The species flag, not a name list: any class registering with
    ``learned = True`` is recognized by the parallel-session guard and
    the grid's cache-key resolution.
    """
    spec = PolicySpec.coerce(spec)
    return bool(getattr(policy_class(domain, spec.name), "learned", False))


def learned_snapshot(policies: Mapping[str, Any]
                     ) -> Optional[Dict[str, Any]]:
    """Per-domain state snapshots of the learned policies in ``policies``.

    Returns ``None`` when no policy is learned, so report fields
    following the emit-only-when-set discipline stay unset on static
    runs (legacy goldens byte-identical).
    """
    snapshot = {domain: policy.state_snapshot()
                for domain, policy in policies.items()
                if getattr(policy, "learned", False)}
    return snapshot or None


def resolved_policy_spec(domain: str, spec: Any) -> PolicySpec:
    """``spec`` with cache-relevant defaults materialized for learned cells.

    Static policies pass through untouched, so every pre-existing
    serialized form — and every cache key derived from it — stays
    byte-identical.  For the learned species (``learned = True`` on the
    class) the constructor defaults *are* behavior (warm-up length,
    exploration schedule, retrain cadence), so a bare spec is resolved to
    carry every defaulted constructor param explicitly: a retuned default
    can then never alias a result cached under the old default.  Params
    named in the class's ``context_params`` (the scenario-seed plumbing)
    are call-site context, not configuration — they stay out of the
    resolved spec unless the caller set them explicitly, since an
    explicit spec param would override the session's seed context.
    """
    spec = PolicySpec.coerce(spec)
    cls = policy_class(domain, spec.name)
    if not getattr(cls, "learned", False):
        return spec
    context = set(getattr(cls, "context_params", ()))
    params: Dict[str, Any] = {}
    for parameter in inspect.signature(cls.__init__).parameters.values():
        if parameter.name == "self" or parameter.name in context:
            continue
        if parameter.kind not in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                                  inspect.Parameter.KEYWORD_ONLY):
            continue
        if parameter.default is inspect.Parameter.empty:
            continue            # required params (device_count) are context
        params[parameter.name] = parameter.default
    params.update(spec.params)
    return PolicySpec(spec.name, params)

