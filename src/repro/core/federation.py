"""Federation orchestration: build, run and harvest a Grid-Federation simulation.

:class:`Federation` wires together every substrate — simulator, clusters,
LRMSes, GFAs, user populations, federation directory, GridBank and message
log — from a declarative :class:`FederationConfig`, runs the discrete-event
simulation and returns a :class:`FederationResult` containing everything the
metrics package and the experiment drivers need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING

from repro.cluster.lrms import SchedulingPolicy
from repro.cluster.specs import ResourceSpec
from repro.core.gfa import GFAStatistics, GridFederationAgent
from repro.core.messages import MessageLog
from repro.core.policies import SharingMode
from repro.core.users import UserPopulation
from repro.economy.bank import GridBank
from repro.net.topology import build_topology
from repro.net.transport import Transport, TransportStats
from repro.p2p.directory import FederationDirectory
from repro.p2p.sharded import create_directory
from repro.sim.engine import Simulator
from repro.sim.entity import EntityRegistry
from repro.sim.rng import RandomStreams
from repro.workload.job import Job, JobStatus, QoSStrategy
from repro.workload.qos import assign_qos, assign_strategies

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector, FaultReport
    from repro.faults.plan import FaultPlan
    from repro.par.stats import ParallelStats
    from repro.resilience.policy import ResilienceManager, ResiliencePolicy, ResilienceReport
    from repro.validate import RuntimeValidator


@dataclass
class FederationConfig:
    """Declarative description of one simulation run.

    Attributes
    ----------
    mode:
        Sharing environment (independent / federation / economy).
    oft_fraction:
        Fraction of each cluster's users that optimise for time (only used in
        ECONOMY mode); ``0.3`` reproduces the paper's recommended 70/30 mix.
    budget_factor, deadline_factor:
        The Eq. 7–8 multipliers (both 2 in the paper).
    lrms_policy:
        Queueing policy of every cluster's LRMS.
    horizon:
        Length of the submission window in seconds; used as the minimum
        observation period for utilisation statistics.
    seed:
        Root seed for every stochastic component of the run.
    keep_message_records:
        Retain individual message records (memory-heavier; useful in tests).
    transport:
        Topology/latency model key for the message fabric (``"uniform"``,
        ``"star"``, ``"ring"``, ``"two-tier-wan"``, or anything registered
        via :func:`repro.net.register_topology`).  The default ``"uniform"``
        is the paper's zero-latency model and keeps runs byte-identical to
        the pre-transport code paths.
    directory_shards:
        Number of directory peer shards the quotes are partitioned across
        (1 = the historical single shared directory).
    resilience:
        Resilience-policy registry key this run was configured with
        (``"paper"`` = the bare negotiation path, nothing installed).  The
        config only *names* the policy — installation happens through
        :meth:`Federation.install_resilience`, which the scenario runner
        drives for any key that resolves to an active policy.
    """

    mode: SharingMode = SharingMode.ECONOMY
    oft_fraction: float = 0.3
    budget_factor: float = 2.0
    deadline_factor: float = 2.0
    lrms_policy: SchedulingPolicy = SchedulingPolicy.FCFS
    horizon: float = 2 * 86_400.0
    seed: int = 42
    keep_message_records: bool = False
    transport: str = "uniform"
    directory_shards: int = 1
    resilience: str = "paper"

    def __post_init__(self) -> None:
        if not 0.0 <= self.oft_fraction <= 1.0:
            raise ValueError(
                f"oft_fraction must lie in [0, 1], got {self.oft_fraction}"
            )
        if self.budget_factor <= 0:
            raise ValueError(f"budget_factor must be positive, got {self.budget_factor}")
        if self.deadline_factor <= 0:
            raise ValueError(
                f"deadline_factor must be positive, got {self.deadline_factor}"
            )
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.directory_shards < 1:
            raise ValueError(
                f"directory_shards must be at least 1, got {self.directory_shards}"
            )
        if not self.resilience or not isinstance(self.resilience, str):
            raise ValueError(
                f"resilience must be a registry key string, got {self.resilience!r}"
            )


@dataclass
class ResourceOutcome:
    """Everything measured about one cluster at the end of a run."""

    spec: ResourceSpec
    stats: GFAStatistics
    utilisation: float
    incentive: float
    remote_jobs_processed: int
    local_messages: int
    remote_messages: int


@dataclass
class FederationResult:
    """Outcome of one simulation run."""

    config: FederationConfig
    specs: List[ResourceSpec]
    jobs: List[Job]
    resources: Dict[str, ResourceOutcome]
    message_log: MessageLog
    bank: Optional[GridBank]
    directory: Optional[FederationDirectory]
    observation_period: float
    events_processed: int
    #: Fault accounting (``None`` on the zero-fault path).
    faults: Optional["FaultReport"] = None
    #: Transport-derived traffic accounting (message counts, latency, losses,
    #: directory control-plane fan-out); ``None`` only for legacy callers
    #: that build results by hand.
    network: Optional[TransportStats] = None
    #: Resilience-policy accounting (``None`` when no policy was installed —
    #: the default ``paper`` path).
    resilience: Optional["ResilienceReport"] = None
    #: Parallel-engine accounting (``None`` when the run never touched the
    #: parallel dispatcher; a fallback record when it was requested but the
    #: scenario was ineligible and the run completed serially).
    parallel: Optional["ParallelStats"] = None

    # ------------------------------------------------------------------ #
    # Convenience queries used throughout metrics / experiments / benches
    # ------------------------------------------------------------------ #
    def jobs_of(self, origin: str) -> List[Job]:
        """Jobs submitted by the local population of ``origin``."""
        return [job for job in self.jobs if job.origin == origin]

    def completed_jobs(self) -> List[Job]:
        """All jobs that finished execution."""
        return [job for job in self.jobs if job.status is JobStatus.COMPLETED]

    def rejected_jobs(self) -> List[Job]:
        """All jobs dropped by the superscheduler."""
        return [job for job in self.jobs if job.status is JobStatus.REJECTED]

    def failed_jobs(self) -> List[Job]:
        """All jobs attributably lost to injected faults."""
        return [job for job in self.jobs if job.status is JobStatus.FAILED]

    def total_incentive(self) -> float:
        """Grid Dollars earned by all resource owners together."""
        return sum(outcome.incentive for outcome in self.resources.values())

    def resource_names(self) -> List[str]:
        """Cluster names in Table 1 order."""
        return [spec.name for spec in self.specs]


class Federation:
    """Builds and runs one Grid-Federation simulation.

    Parameters
    ----------
    specs:
        The participating clusters (Table 1 order is preserved in reports).
    workload:
        Mapping from cluster name to the jobs submitted by its local users.
    config:
        Run configuration.

    Notes
    -----
    QoS parameters are fabricated here (Eqs. 7–8) for every mode, because the
    acceptance criterion of Experiments 1 and 2 is also deadline-based; user
    strategies are only assigned in ECONOMY mode.
    """

    def __init__(
        self,
        specs: Sequence[ResourceSpec],
        workload: Mapping[str, Sequence[Job]],
        config: Optional[FederationConfig] = None,
        agent_class: type = GridFederationAgent,
    ):
        if not issubclass(agent_class, GridFederationAgent):
            raise TypeError("agent_class must derive from GridFederationAgent")
        self.agent_class = agent_class
        self.config = config or FederationConfig()
        self.specs = list(specs)
        spec_names = {spec.name for spec in self.specs}
        unknown = set(workload) - spec_names
        if unknown:
            raise ValueError(f"workload refers to unknown resources: {sorted(unknown)}")
        self.workload: Dict[str, List[Job]] = {
            spec.name: list(workload.get(spec.name, [])) for spec in self.specs
        }
        self.streams = RandomStreams(self.config.seed)
        self.sim = Simulator()
        self.registry = EntityRegistry()
        self.message_log = MessageLog(keep_records=self.config.keep_message_records)
        # The message fabric: every cross-entity interaction rides it.  The
        # MessageLog observes it, so Experiment 4/5 message accounting is
        # derived from the traffic that actually flowed.
        topology = build_topology(
            self.config.transport,
            [spec.name for spec in self.specs],
            rng=self.streams.get("net/latency"),
        )
        self.transport = Transport(
            self.sim, topology, rng=self.streams.get("net/latency")
        )
        self.transport.add_observer(self.message_log)
        self.bank: Optional[GridBank] = GridBank() if self.config.mode is SharingMode.ECONOMY else None
        self.directory: Optional[FederationDirectory] = None
        if self.config.mode is not SharingMode.INDEPENDENT:
            self.directory = create_directory(
                self.streams, self.config.directory_shards
            )
            self.directory.attach_transport(self.transport)

        self._prepare_jobs()
        self.gfas: Dict[str, GridFederationAgent] = {}
        self.populations: Dict[str, UserPopulation] = {}
        for spec in self.specs:
            self._build_member(spec)
        self._ran = False
        self._fault_injector: Optional["FaultInjector"] = None
        self._validator: Optional["RuntimeValidator"] = None
        self._resilience: Optional["ResilienceManager"] = None

    def _build_member(self, spec: ResourceSpec) -> None:
        """Construct one cluster's GFA and user population.

        The parallel engine's :class:`repro.par.shard.ShardFederation`
        overrides this hook: specs owned by the shard get the full build,
        foreign specs get a lightweight proxy instead — everything else in
        ``__init__`` (streams, directory, transport, job prep) stays shared
        so both paths draw the same random numbers in the same order.
        """
        gfa = self.agent_class(
            sim=self.sim,
            registry=self.registry,
            spec=spec,
            message_log=self.message_log,
            mode=self.config.mode,
            directory=self.directory,
            bank=self.bank,
            lrms_policy=self.config.lrms_policy,
            transport=self.transport,
        )
        self.gfas[spec.name] = gfa
        population = UserPopulation(self.sim, self.registry, spec.name, self.workload[spec.name])
        self.populations[spec.name] = population

    # ------------------------------------------------------------------ #
    # Fault injection and runtime validation (both opt-in)
    # ------------------------------------------------------------------ #
    def install_faults(self, plan: "FaultPlan") -> "FaultInjector":
        """Attach a fault injector driving ``plan`` during :meth:`run`.

        Must be called before :meth:`run`; installing an *empty* plan is
        allowed but pointless — callers normally skip it so that the
        zero-fault path stays byte-identical to a plain federation.
        """
        if self._ran:
            raise RuntimeError("cannot install faults after the federation ran")
        if self._fault_injector is not None:
            raise RuntimeError("a fault plan is already installed")
        from repro.faults.injector import FaultInjector

        self._fault_injector = FaultInjector(self, plan)
        if self._validator is not None:
            self._fault_injector.validator = self._validator
        return self._fault_injector

    def install_resilience(self, policy: "ResiliencePolicy") -> "ResilienceManager":
        """Attach a resilience policy (retry/backoff, breakers, quote TTLs).

        Must be called before :meth:`run`.  Without it every GFA keeps
        ``resilience is None`` and the negotiation path is byte-identical to
        the paper's — exactly like the fault injector's opt-in pattern.
        """
        if self._ran:
            raise RuntimeError("cannot install resilience after the federation ran")
        if self._resilience is not None:
            raise RuntimeError("a resilience policy is already installed")
        from repro.resilience.policy import ResilienceManager

        self._resilience = ResilienceManager(self, policy)
        return self._resilience

    def install_validator(self, validator: Optional["RuntimeValidator"] = None) -> "RuntimeValidator":
        """Attach a runtime validator (simulation-invariant assertion mode).

        The validator re-checks the fault-consistency invariants after every
        applied fault event and runs the full invariant suite on the result
        before :meth:`run` returns, raising
        :class:`repro.validate.InvariantViolation` on the first breach.
        """
        if self._ran:
            raise RuntimeError("cannot install a validator after the federation ran")
        if validator is None:
            from repro.validate import RuntimeValidator

            validator = RuntimeValidator()
        self._validator = validator
        if self._fault_injector is not None:
            self._fault_injector.validator = validator
        return validator

    # ------------------------------------------------------------------ #
    # Preparation
    # ------------------------------------------------------------------ #
    def _prepare_jobs(self) -> None:
        specs_by_name = {spec.name: spec for spec in self.specs}
        all_jobs = self._all_jobs = [job for jobs in self.workload.values() for job in jobs]
        assign_qos(
            all_jobs,
            specs_by_name,
            budget_factor=self.config.budget_factor,
            deadline_factor=self.config.deadline_factor,
        )
        if self.config.mode is SharingMode.ECONOMY:
            assign_strategies(all_jobs, self.config.oft_fraction, self.streams.get("qos/strategies"))
        else:
            for job in all_jobs:
                job.strategy = QoSStrategy.NONE

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> FederationResult:
        """Run the simulation to completion and return the collected results."""
        self.start()
        self.sim.run()
        return self.collect()

    def start(self) -> None:
        """Schedule the initial event population (faults, then arrivals).

        Each user population queues only its first arrival; the rest follow
        one at a time under sequence numbers reserved here, in population
        order.

        Split out of :meth:`run` so the checkpointing driver can start the
        entities once and then advance the simulation in bounded chunks
        (``sim.run(until=...)``) with a snapshot between chunks; the split
        is exact — ``run()`` is ``start(); sim.run(); collect()``.
        """
        if self._ran:
            raise RuntimeError("a Federation instance can only be run once")
        self._ran = True
        if self._fault_injector is not None:
            # Faults are scheduled first so that, at equal timestamps, a
            # fault applies before the job submissions of that instant.
            self._fault_injector.start()
        for population in self.populations.values():
            population.start()

    def collect(self) -> FederationResult:
        """Harvest the :class:`FederationResult` after the event queue drained."""
        all_jobs = self._all_jobs
        last_finish = max(
            (job.finish_time for job in all_jobs if job.finish_time is not None),
            default=self.config.horizon,
        )
        observation_period = max(self.config.horizon, last_finish)

        # One pass over the jobs serves every spec's remote-work count.
        remote_counts: Dict[str, int] = {}
        for job in all_jobs:
            if (
                job.status is JobStatus.COMPLETED
                and job.executed_on is not None
                and job.executed_on != job.origin
            ):
                remote_counts[job.executed_on] = remote_counts.get(job.executed_on, 0) + 1

        resources: Dict[str, ResourceOutcome] = {}
        for spec in self.specs:
            gfa = self.gfas[spec.name]
            counters = self.message_log.counters(spec.name)
            resources[spec.name] = ResourceOutcome(
                spec=spec,
                stats=gfa.stats,
                utilisation=gfa.utilisation(observation_period),
                incentive=gfa.incentive_earned,
                remote_jobs_processed=remote_counts.get(spec.name, 0),
                local_messages=counters.local,
                remote_messages=counters.remote,
            )

        faults = (
            self._fault_injector.report(observation_period)
            if self._fault_injector is not None
            else None
        )
        result = FederationResult(
            config=self.config,
            specs=self.specs,
            jobs=all_jobs,
            resources=resources,
            message_log=self.message_log,
            bank=self.bank,
            directory=self.directory,
            observation_period=observation_period,
            events_processed=self.sim.events_processed,
            faults=faults,
            network=self.transport.stats,
            resilience=(
                self._resilience.report() if self._resilience is not None else None
            ),
        )
        if self._validator is not None:
            self._validator.validate_end(self, result)
        return result


def run_federation(
    specs: Sequence[ResourceSpec],
    workload: Mapping[str, Sequence[Job]],
    config: Optional[FederationConfig] = None,
) -> FederationResult:
    """One-shot helper: build a :class:`Federation`, run it, return the result.

    .. deprecated:: 2.0
       Use :func:`repro.scenario.run_scenario` with a
       :class:`repro.scenario.Scenario` instead; this shim delegates there.
    """
    import warnings

    warnings.warn(
        "run_federation() is deprecated; use repro.scenario.run_scenario("
        "Scenario(...)) instead",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.scenario.runner import run_scenario
    from repro.scenario.scenario import scenario_from_config

    scenario = scenario_from_config(config or FederationConfig())
    return run_scenario(scenario, specs=specs, workload=workload)
