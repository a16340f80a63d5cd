"""Unified Scenario API: declarative runs, variant registries, parallel sweeps.

Every run, whatever its agent, pricing, workload or experiment, goes
through three composable pieces:

* :class:`~repro.scenario.scenario.Scenario` — one simulation run as
  validated, hashable data;
* the variant registries (:mod:`repro.scenario.registry`) under which agents,
  pricing policies and workload sources are registered by name;
* :func:`~repro.scenario.runner.run_scenario` and
  :class:`~repro.scenario.runner.SweepRunner` — execution of single points
  and of parallel, memoised parameter sweeps.

Quick start::

    from repro.scenario import Scenario, SweepRunner, run_scenario

    result = run_scenario(Scenario(agent="broadcast", oft_fraction=0.3))

    runner = SweepRunner(workers=4)
    sweep = runner.run(runner.sweep(profiles=range(0, 101, 10)))
    for scenario, result in sweep:
        print(scenario.describe(), result.total_incentive())
"""

from repro.scenario.registry import (
    AGENT_REGISTRY,
    FAULT_REGISTRY,
    PRICING_REGISTRY,
    RESILIENCE_REGISTRY,
    UnknownVariantError,
    VariantRegistry,
    WORKLOAD_REGISTRY,
    register_agent,
    register_fault,
    register_pricing,
    register_resilience,
    register_workload,
)

# Importing the builtins module registers the paper's variants (default /
# broadcast / coordinated agents, static / demand pricing, archive /
# synthetic workloads) as a side effect.
import repro.scenario.builtins  # noqa: F401  (registration side effect)

from repro.scenario.scenario import Scenario, scenario_from_config
from repro.scenario.runner import (
    SweepPoint,
    SweepResult,
    SweepRunner,
    resolve_fault_plan,
    resolve_resilience_policy,
    resolve_resources,
    result_fingerprint,
    run_scenario,
)

__all__ = [
    "AGENT_REGISTRY",
    "FAULT_REGISTRY",
    "PRICING_REGISTRY",
    "RESILIENCE_REGISTRY",
    "WORKLOAD_REGISTRY",
    "UnknownVariantError",
    "VariantRegistry",
    "register_agent",
    "register_fault",
    "register_pricing",
    "register_resilience",
    "register_workload",
    "Scenario",
    "scenario_from_config",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "resolve_fault_plan",
    "resolve_resilience_policy",
    "resolve_resources",
    "result_fingerprint",
    "run_scenario",
]
