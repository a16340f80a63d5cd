"""String-keyed variant registries: the extension points of the Scenario API.

Three registries turn the repository's behavioural variants into *data*:

* the **agent** registry maps names to :class:`GridFederationAgent`
  subclasses (``"default"``, ``"broadcast"``, ``"coordinated"``, ...);
* the **pricing** registry maps names to federation factories — callables
  that assemble the right :class:`~repro.core.federation.Federation`
  (sub)class for a scenario (``"static"``, ``"demand"``, ...);
* the **workload** registry maps names to workload providers — callables
  that generate the per-resource job lists (``"archive"``, ``"synthetic"``),
  already thinned by ``scenario.thin``.

Each entry may restrict the :class:`~repro.core.policies.SharingMode`\\ s it
supports; :class:`~repro.scenario.scenario.Scenario` validation consults the
restriction at construction time, so an impossible combination (for example a
broadcast agent in independent mode) fails before any simulation is built.

Registering a new variant is a one-decorator affair::

    from repro.scenario import register_agent

    @register_agent("mine")
    class MyAgent(GridFederationAgent):
        ...

    run_scenario(Scenario(agent="mine"))

The built-in variants are registered in :mod:`repro.scenario.builtins`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional

from repro.core.policies import SharingMode

__all__ = [
    "UnknownVariantError",
    "VariantRegistry",
    "AGENT_REGISTRY",
    "FAULT_REGISTRY",
    "PRICING_REGISTRY",
    "RESILIENCE_REGISTRY",
    "WORKLOAD_REGISTRY",
    "register_agent",
    "register_fault",
    "register_pricing",
    "register_resilience",
    "register_workload",
]


class UnknownVariantError(KeyError):
    """Raised when a scenario names a variant no registry knows about."""

    def __init__(self, kind: str, key: str, known: Iterable[str]):
        self.kind = kind
        self.key = key
        self.known = sorted(known)
        super().__init__(key)

    def __str__(self) -> str:
        return (
            f"unknown {self.kind} variant {self.key!r}; "
            f"registered variants: {', '.join(self.known) or '(none)'}"
        )


@dataclass(frozen=True)
class VariantEntry:
    """One registered variant: its value plus the sharing modes it supports."""

    key: str
    value: Any
    modes: Optional[FrozenSet[SharingMode]] = None

    def supports(self, mode: SharingMode) -> bool:
        """True if the variant can run in ``mode`` (None = any mode)."""
        return self.modes is None or mode in self.modes


class VariantRegistry:
    """A string-keyed registry of interchangeable scenario components.

    Parameters
    ----------
    kind:
        Human-readable component kind (``"agent"``, ``"pricing"``,
        ``"workload"``) used in error messages.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, VariantEntry] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        key: str,
        *,
        aliases: Iterable[str] = (),
        modes: Optional[Iterable[SharingMode]] = None,
    ) -> Callable[[Any], Any]:
        """Decorator registering ``value`` under ``key`` (and any aliases).

        ``modes`` restricts the sharing modes the variant supports; omit it
        for mode-agnostic variants.  Re-registering an existing key raises
        ``ValueError`` — use a fresh name for your variant.
        """
        names = [key, *aliases]

        def decorate(value: Any) -> Any:
            frozen = frozenset(modes) if modes is not None else None
            for name in names:
                if name in self._entries:
                    raise ValueError(
                        f"{self.kind} variant {name!r} is already registered"
                    )
                self._entries[name] = VariantEntry(key=key, value=value, modes=frozen)
            return value

        return decorate

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def entry(self, key: str) -> VariantEntry:
        """Full entry for ``key``; raises :class:`UnknownVariantError`."""
        try:
            return self._entries[key]
        except KeyError:
            raise UnknownVariantError(self.kind, key, self._entries) from None

    def get(self, key: str) -> Any:
        """The registered value for ``key``; raises :class:`UnknownVariantError`."""
        return self.entry(key).value

    def available(self) -> List[str]:
        """All registered names (canonical keys and aliases), sorted."""
        return sorted(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"VariantRegistry({self.kind!r}, {self.available()})"


#: Agent variants: :class:`GridFederationAgent` subclasses.
AGENT_REGISTRY = VariantRegistry("agent")
#: Pricing variants: federation factories ``(scenario, specs, workload,
#: config, agent_class) -> Federation``.
PRICING_REGISTRY = VariantRegistry("pricing")
#: Workload variants: providers ``(scenario, streams, resources) -> workload``,
#: which apply ``scenario.thin`` themselves (nothing thins their output
#: afterwards).  A provider that also accepts ``only=`` (a set of resource
#: names) generates just those resources' jobs, with the ids a full build
#: gives them; the parallel engine's shards use it.
WORKLOAD_REGISTRY = VariantRegistry("workload")
#: Fault variants: plan factories ``(scenario, streams, specs) -> FaultPlan``.
FAULT_REGISTRY = VariantRegistry("fault")
#: Resilience variants: policy factories ``(scenario) ->
#: Optional[ResiliencePolicy]`` (``None`` = the paper's bare negotiation
#: path, nothing installed).
RESILIENCE_REGISTRY = VariantRegistry("resilience")

#: Decorator registering an agent class, e.g. ``@register_agent("mine")``.
register_agent = AGENT_REGISTRY.register
#: Decorator registering a pricing/federation factory.
register_pricing = PRICING_REGISTRY.register
#: Decorator registering a workload provider.
register_workload = WORKLOAD_REGISTRY.register
#: Decorator registering a fault-plan factory, e.g. ``@register_fault("mine")``.
register_fault = FAULT_REGISTRY.register
#: Decorator registering a resilience-policy factory,
#: e.g. ``@register_resilience("mine")``.
register_resilience = RESILIENCE_REGISTRY.register
