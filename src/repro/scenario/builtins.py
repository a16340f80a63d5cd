"""Built-in variants: the repository's baselines and extensions as registry data.

Importing this module (which :mod:`repro.scenario` does on package import)
registers the paper's agent, pricing and workload variants, so that

>>> Scenario(agent="broadcast")                        # doctest: +SKIP
>>> Scenario(pricing="demand", mode="economy")         # doctest: +SKIP
>>> Scenario(workload="synthetic", horizon=86_400.0)   # doctest: +SKIP

select a variant by name instead of through a per-variant entry point.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.baselines.broadcast import BroadcastGFA
from repro.core.federation import Federation
from repro.core.gfa import GridFederationAgent
from repro.core.policies import SharingMode
from repro.extensions.coordination import CoordinatedGFA
from repro.extensions.dynamic_pricing import DynamicPricingFederation
from repro.scenario.registry import register_agent, register_pricing, register_workload

# Importing the fault variants registers the built-in fault plans
# ("none", "crash-recover", "churn", "flaky-network", "load-spike", "chaos").
import repro.faults.variants  # noqa: F401  (registration side effect)

# Importing the resilience variants registers the built-in policies
# ("paper", "noop", "retry", "retry-breaker").
import repro.resilience.variants  # noqa: F401  (registration side effect)
from repro.sim.rng import RandomStreams
from repro.workload.archive import ArchiveResource, build_workload
from repro.workload.job import Job

_FEDERATED = (SharingMode.FEDERATION, SharingMode.ECONOMY)

# --------------------------------------------------------------------------- #
# Agents
# --------------------------------------------------------------------------- #
register_agent("default", aliases=("gfa", "ranked"))(GridFederationAgent)
register_agent("broadcast", modes=_FEDERATED)(BroadcastGFA)
register_agent("coordinated", modes=_FEDERATED)(CoordinatedGFA)


# --------------------------------------------------------------------------- #
# Pricing: federation factories
# --------------------------------------------------------------------------- #
@register_pricing("static")
def _static_federation(scenario, specs, workload, config, agent_class) -> Federation:
    """The paper's fixed Eq. 5-6 quotes: a plain :class:`Federation`."""
    return Federation(specs, workload, config, agent_class=agent_class)


@register_pricing("demand", aliases=("dynamic",), modes=(SharingMode.ECONOMY,))
def _demand_federation(scenario, specs, workload, config, agent_class) -> Federation:
    """Demand-driven quote adjustment (Ablation B) for any agent variant."""
    return DynamicPricingFederation(
        specs,
        workload,
        config,
        repricing_interval=scenario.repricing_interval,
        agent_class=agent_class,
    )


# --------------------------------------------------------------------------- #
# Workloads: providers
# --------------------------------------------------------------------------- #
@register_workload("archive", aliases=("table1",))
def _archive_workload(
    scenario, streams: RandomStreams, resources: Sequence[ArchiveResource], only=None
) -> Dict[str, List[Job]]:
    """The calibrated two-day Table 1 workload (the paper's evaluation trace).

    Thinned by ``scenario.thin`` as it is generated.  ``only`` restricts
    generation to the named resources (bit-identical jobs, empty lists
    elsewhere) — the parallel engine's shard-local build.
    """
    return build_workload(streams, resources, only=only, thin=scenario.thin)


@register_workload("synthetic")
def _synthetic_workload(
    scenario, streams: RandomStreams, resources: Sequence[ArchiveResource], only=None
) -> Dict[str, List[Job]]:
    """The same calibrated generators, but submitting over ``scenario.horizon``.

    Each resource keeps its Table 2/3 job count; shrinking or stretching the
    horizon changes the offered-load density, which makes this variant the
    quick way to study over/under-subscription regimes.  Thinned by
    ``scenario.thin`` as it is generated; ``only`` restricts generation to the
    named resources (the parallel engine's shard build).
    """
    return build_workload(
        streams, resources, horizon=scenario.horizon, only=only, thin=scenario.thin
    )
