"""The name → agent map of one simulation.

GFAs address each other by name, exactly as in the paper: negotiation,
migration, resilience and the broadcast baseline resolve a peer with
:meth:`EntityRegistry.lookup`, and a parallel shard registers a proxy under
each foreign cluster's name so the same lookups reach it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator

from repro.sim.engine import SimulationError


class EntityRegistry:
    """Name → agent lookup shared by all agents of one simulation.

    Anything with a ``name`` attribute can register; names are unique.
    """

    def __init__(self) -> None:
        self._entities: Dict[str, Any] = {}

    def register(self, entity: Any) -> None:
        if entity.name in self._entities:
            raise SimulationError(f"duplicate entity name: {entity.name!r}")
        self._entities[entity.name] = entity

    def lookup(self, name: str) -> Any:
        try:
            return self._entities[name]
        except KeyError:
            raise SimulationError(f"unknown entity: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entities

    def __iter__(self) -> Iterator[Any]:
        return iter(self._entities.values())

    def __len__(self) -> int:
        return len(self._entities)
