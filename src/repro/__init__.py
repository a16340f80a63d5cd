"""Grid-Federation: cooperative and incentive-based coupling of distributed clusters.

A from-scratch Python reproduction of Ranjan, Harwood and Buyya's
Grid-Federation system (IEEE Cluster 2005): a decentralised, computational
economy based superscheduler that couples autonomous clusters through
per-cluster Grid Federation Agents, a shared P2P quote directory and a
deadline-and-budget-constrained scheduling algorithm.

Quick start — one declarative :class:`Scenario` per run::

    from repro import Scenario, run_scenario

    result = run_scenario(Scenario())                     # the paper's economy setup
    print(result.total_incentive(), len(result.completed_jobs()))

    result = run_scenario(Scenario(agent="broadcast"))    # NASA-style baseline
    result = run_scenario(Scenario(pricing="demand"))     # dynamic pricing ablation
    result = run_scenario(Scenario(mode="federation"))    # no economy (Experiment 2)

Parameter sweeps run in parallel and memoise completed points::

    from repro import Scenario, SweepRunner

    runner = SweepRunner(workers=4)
    scenarios = runner.sweep(profiles=range(0, 101, 10),  # Experiment 3
                             sizes=(10, 20, 30, 40, 50))  # Experiment 5
    for scenario, result in runner.run(scenarios):
        print(scenario.describe(), result.total_incentive())

Clusters can fail, rejoin and degrade mid-run, with every simulation
invariant checked under churn — see ``docs/TESTING.md``::

    result = run_scenario(Scenario(faults="crash-recover"), validate=True)
    print(result.faults.downtime, result.faults.renegotiations)

New variants register in ten lines — see ``docs/API.md``::

    from repro import register_agent, GridFederationAgent

    @register_agent("mine")
    class MyAgent(GridFederationAgent):
        ...

    run_scenario(Scenario(agent="mine"))

Every cross-entity message rides a pluggable transport, and its topology is
scenario data too — see ``docs/ARCHITECTURE.md``::

    result = run_scenario(Scenario(transport="two-tier-wan"))
    print(result.network.messages, result.network.latency_s)

See ``docs/ARCHITECTURE.md`` for the system inventory.
``scripts/generate_experiments_md.py`` writes ``EXPERIMENTS.md``, the
paper-versus-measured record of every table and figure; that file is not
checked in.
"""

from repro.core import (
    Federation,
    FederationConfig,
    FederationResult,
    GridFederationAgent,
    MessageLog,
    MessageType,
    SharingMode,
)
from repro.cluster import ResourceSpec, SpaceSharedLRMS, SchedulingPolicy
from repro.economy import GridBank, StaticPricingPolicy, DemandDrivenPricingPolicy
from repro.net import Transport, TransportStats, available_topologies, register_topology
from repro.p2p import FederationDirectory, RankCriterion
from repro.faults import FaultPlan, random_fault_plan
from repro.scenario import (
    Scenario,
    SweepResult,
    SweepRunner,
    UnknownVariantError,
    register_agent,
    register_fault,
    register_pricing,
    register_resilience,
    register_workload,
    run_scenario,
    scenario_from_config,
)
from repro.resilience import ResiliencePolicy
from repro.validate import InvariantViolation, assert_valid, validate_result
from repro.sim import RandomStreams, Simulator
from repro.workload import (
    Job,
    JobStatus,
    QoSStrategy,
    build_federation_specs,
    build_workload,
)

__version__ = "2.0.0"

__all__ = [
    "Federation",
    "FederationConfig",
    "FederationResult",
    "GridFederationAgent",
    "MessageLog",
    "MessageType",
    "SharingMode",
    "Scenario",
    "SweepResult",
    "SweepRunner",
    "UnknownVariantError",
    "register_agent",
    "register_fault",
    "register_pricing",
    "register_resilience",
    "register_workload",
    "ResiliencePolicy",
    "run_scenario",
    "scenario_from_config",
    "FaultPlan",
    "random_fault_plan",
    "InvariantViolation",
    "assert_valid",
    "validate_result",
    "ResourceSpec",
    "SpaceSharedLRMS",
    "SchedulingPolicy",
    "GridBank",
    "StaticPricingPolicy",
    "DemandDrivenPricingPolicy",
    "FederationDirectory",
    "RankCriterion",
    "Transport",
    "TransportStats",
    "available_topologies",
    "register_topology",
    "RandomStreams",
    "Simulator",
    "Job",
    "JobStatus",
    "QoSStrategy",
    "build_federation_specs",
    "build_workload",
    "__version__",
]
