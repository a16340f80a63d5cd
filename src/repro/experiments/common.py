"""Shared helpers for the experiment drivers."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.specs import ResourceSpec
from repro.sim.rng import RandomStreams
from repro.workload.archive import (
    ARCHIVE_RESOURCES,
    ArchiveResource,
    build_federation_specs,
    build_workload,
)
from repro.workload.job import Job

#: The eleven user-population profiles of Experiment 3: percentage of users
#: seeking optimise-for-time (the remainder seek optimise-for-cost).
DEFAULT_PROFILES: Tuple[int, ...] = tuple(range(0, 101, 10))


def default_specs(resources: Optional[Sequence[ArchiveResource]] = None) -> List[ResourceSpec]:
    """Resource specifications of the federation (Table 1 by default)."""
    return build_federation_specs(resources)


def default_workload(
    seed: int = 42,
    resources: Optional[Sequence[ArchiveResource]] = None,
    thin: int = 1,
) -> Dict[str, List[Job]]:
    """The calibrated two-day workload, optionally thinned for quick runs.

    Parameters
    ----------
    seed:
        Root seed of the synthetic trace generator.
    resources:
        Subset (or replication) of the Table 1 resources.
    thin:
        Keep every ``thin``-th job of each resource (1 = full workload).
    """
    return build_workload(RandomStreams(seed), resources, thin=thin)


def archive_resources() -> List[ArchiveResource]:
    """The eight Table 1 resources (convenience re-export)."""
    return list(ARCHIVE_RESOURCES)
