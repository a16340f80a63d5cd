"""Scenario execution: single runs and parallel, memoised sweeps.

:func:`run_scenario` resolves a :class:`~repro.scenario.scenario.Scenario`'s
registry keys into concrete classes, builds the federation and runs it.  Every
stochastic ingredient (workload streams, strategy assignment, directory
probing) is derived from the scenario's own seed and the global job-id counter
is reset before workload generation, so a scenario produces the *same* result
whether it runs in this process, in a worker process, or after a hundred other
scenarios — the property the parallel sweep runner rests on.

:class:`SweepRunner` expands parameter grids into scenario lists
(:meth:`SweepRunner.sweep`), executes them serially or across a
``ProcessPoolExecutor`` (:meth:`SweepRunner.run`), and memoises completed
points keyed on the scenario hash so repeated or incremental sweeps only pay
for new points.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan

from repro.core.federation import FederationResult
from repro.scenario.registry import (
    AGENT_REGISTRY,
    FAULT_REGISTRY,
    PRICING_REGISTRY,
    RESILIENCE_REGISTRY,
    WORKLOAD_REGISTRY,
)
from repro.scenario.scenario import Scenario
from repro.sim.rng import RandomStreams
from repro.workload.archive import (
    ARCHIVE_RESOURCES,
    ArchiveResource,
    build_federation_specs,
    replicate_resources,
)
from repro.workload.job import Job, reset_job_counter

__all__ = [
    "run_scenario",
    "resolve_fault_plan",
    "resolve_resilience_policy",
    "result_fingerprint",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
]


def result_fingerprint(result: FederationResult) -> str:
    """Deterministic digest of everything the paper's tables read off a run.

    Two runs with equal fingerprints produce byte-identical experiment
    outputs: the digest covers every job's terminal state, placement, message
    and negotiation counts and cost, plus per-resource utilisation, incentive
    and message totals.  Used by the perf benchmark suites and by tests
    comparing serial against parallel runs and sweeps.

    Floats are rounded to 9 decimals before hashing so the digest is stable
    across platforms with differing float repr, while still far below any
    difference the rendered tables could show.
    """
    jobs = [
        (
            job.job_id,
            job.status.name,
            job.executed_on,
            None if job.finish_time is None else round(job.finish_time, 9),
            job.messages,
            job.negotiation_rounds,
            None if job.cost_paid is None else round(job.cost_paid, 9),
        )
        for job in result.jobs
    ]
    resources = [
        (
            name,
            round(outcome.utilisation, 9),
            round(outcome.incentive, 9),
            outcome.local_messages,
            outcome.remote_messages,
            outcome.remote_jobs_processed,
        )
        for name, outcome in sorted(result.resources.items())
    ]
    blob = json.dumps(
        {
            "jobs": jobs,
            "resources": resources,
            "total_messages": result.message_log.total_messages,
            "observation_period": round(result.observation_period, 9),
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def resolve_resources(
    scenario: Scenario,
    resources: Optional[Sequence[ArchiveResource]] = None,
) -> List[ArchiveResource]:
    """The archive resources a scenario runs on (explicit list wins)."""
    if resources is not None:
        return list(resources)
    if scenario.system_size is not None:
        return replicate_resources(scenario.system_size)
    return list(ARCHIVE_RESOURCES)


def resolve_fault_plan(scenario: Scenario, specs) -> "FaultPlan":
    """Resolve the scenario's ``faults`` key into a concrete plan.

    The factory draws from a fresh :class:`~repro.sim.rng.RandomStreams` of
    the scenario's own seed, so the plan is identical no matter which entry
    point resolves it (keyed streams are pure functions of ``(seed, key)``).
    """
    factory = FAULT_REGISTRY.get(scenario.faults)
    return factory(scenario, RandomStreams(scenario.seed), specs)


def resolve_resilience_policy(scenario: Scenario):
    """Resolve the scenario's ``resilience`` key into a policy (or ``None``).

    ``None`` — what the default ``paper`` variant returns — means *install
    nothing*: the federation keeps the bare, byte-identical negotiation path.
    """
    factory = RESILIENCE_REGISTRY.get(scenario.resilience)
    return factory(scenario)


def run_scenario(
    scenario: Scenario,
    *,
    resources: Optional[Sequence[ArchiveResource]] = None,
    specs=None,
    workload: Optional[Mapping[str, Sequence[Job]]] = None,
    fault_plan: Optional["FaultPlan"] = None,
    validate: bool = False,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: Optional[float] = None,
    on_progress=None,
    checkpoint_floor_s: float = 0.0,
    supervision=None,
) -> FederationResult:
    """Build and run the federation a scenario describes.

    This is the one driver for every run.  ``scenario.parallel`` alone sets
    the worker count: 0 or 1 runs the serial engine; ``N >= 2`` dispatches
    eligible scenarios to the sharded engine (:func:`repro.par.
    try_parallel_run`), while ineligible ones (uniform zero-latency
    topologies, fault plans, dynamic pricing, …) warn and run serially,
    with the fallback diagnostic on ``result.parallel``.

    Parameters
    ----------
    scenario:
        The declarative run description.
    resources:
        Explicit archive resources, overriding the scenario's
        ``system_size`` (used for resource subsets and replications).
    specs, workload:
        Fully explicit resource specs and per-resource job lists; when given
        the scenario's workload source is bypassed entirely.  Supply both
        or neither.
    fault_plan:
        An explicit :class:`~repro.faults.plan.FaultPlan` overriding the
        scenario's ``faults`` registry key (tests and ad hoc experiments).
    validate:
        Opt-in runtime assertion mode: install a
        :class:`~repro.validate.RuntimeValidator` that re-checks the
        simulation invariants after every fault event and validates the full
        result before returning (raising
        :class:`~repro.validate.InvariantViolation` on any breach).
    checkpoint_dir, checkpoint_every, on_progress:
        When any is set the run follows a
        :class:`~repro.service.checkpoint.BoundaryPolicy`, serial or
        sharded alike: every ``checkpoint_every`` simulated seconds
        (default 3600) it writes an atomic checkpoint into
        ``checkpoint_dir`` (as ``checkpoint_floor_s`` allows) and reports a
        :class:`~repro.service.checkpoint.RunProgress` to ``on_progress``,
        which may raise :class:`~repro.service.checkpoint.CancelledRun` to
        stop the run; a final ``done`` report follows completion.  The
        stepping never changes the result.  When ``checkpoint_dir`` already
        holds a checkpoint of this scenario, the run continues from it —
        unless explicit ``resources``, ``specs``, ``workload`` or
        ``fault_plan`` are given or ``validate`` is on, inputs the
        checkpoint's scenario guard cannot see.
    checkpoint_floor_s:
        Wall-clock seconds that must pass since the run started or last
        checkpointed before a step boundary writes its checkpoint (progress
        is still reported at every boundary).  A boundary whose progress
        report raises ``CancelledRun`` checkpoints regardless, so only a
        crash loses work, at most about this many seconds plus one step.
        The default 0 checkpoints at every boundary.
    supervision:
        A :class:`~repro.par.supervisor.SupervisionConfig` for a sharded
        run (``None`` = supervised with defaults).  A supervised run that
        exhausts its restart budget degrades to the serial path here,
        annotated on ``result.parallel`` (``degraded=True``).
    """
    if (specs is None) != (workload is None):
        raise ValueError("pass both specs and workload, or neither")
    explicit = resources is not None or workload is not None
    policy = None
    if checkpoint_dir is not None or checkpoint_every is not None or on_progress is not None:
        # Imported lazily: repro.service sits above this module in the layer
        # stack, and the plain path must not pay for it.
        from repro.service.checkpoint import BoundaryPolicy, continue_serial, drive

        policy = BoundaryPolicy(
            checkpoint_dir, checkpoint_every, on_progress, floor_s=checkpoint_floor_s
        )
    fallback_stats = None
    if scenario.parallel >= 2:
        # Imported lazily: repro.par sits above this module in the layer
        # stack, and the serial path must not pay for it.
        from repro.par.runner import try_parallel_run

        result, par_stats = try_parallel_run(
            scenario,
            workers=scenario.parallel,
            explicit_inputs=explicit,
            explicit_fault_plan=fault_plan is not None,
            validate=validate,
            supervision=supervision,
            boundary=policy,
        )
        if result is not None:
            return result
        import warnings

        if par_stats.degraded:
            warnings.warn(
                f"supervised parallel run degraded to serial "
                f"({par_stats.failure_detail}); re-running serially",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            warnings.warn(
                f"parallel engine unavailable ({par_stats.fallback_reason}); "
                "running serially",
                RuntimeWarning,
                stacklevel=2,
            )
        fallback_stats = par_stats
    if policy is None:
        result = _build_federation(
            scenario, resources, specs, workload, fault_plan, validate
        ).run()
    else:
        federation = None
        if checkpoint_dir is not None and not (explicit or fault_plan is not None or validate):
            federation = continue_serial(checkpoint_dir, scenario)
        if federation is None:
            federation = _build_federation(
                scenario, resources, specs, workload, fault_plan, validate
            )
            federation.start()
        result = drive(federation, scenario, policy)
    if fallback_stats is not None:
        result.parallel = fallback_stats
    return result


def _build_federation(scenario, resources, specs, workload, fault_plan, validate):
    """The serial federation a scenario describes, ready to start."""
    agent_class = AGENT_REGISTRY.get(scenario.agent)
    federation_factory = PRICING_REGISTRY.get(scenario.pricing)
    if workload is None:
        archive = resolve_resources(scenario, resources)
        specs = build_federation_specs(archive)
        provider = WORKLOAD_REGISTRY.get(scenario.workload)
        # Fresh job ids per point: a scenario's outcome must not depend on
        # how many jobs earlier runs of this process created.
        reset_job_counter()
        streams = RandomStreams(scenario.seed)
        workload = provider(scenario, streams, archive)
    federation = federation_factory(
        scenario, specs, workload, scenario.to_config(), agent_class
    )
    plan = fault_plan if fault_plan is not None else resolve_fault_plan(scenario, federation.specs)
    if not plan.is_empty():
        # An empty plan installs nothing: the zero-fault path must stay
        # byte-identical to a federation that never heard of faults.
        federation.install_faults(plan)
    policy = resolve_resilience_policy(scenario)
    if policy is not None:
        federation.install_resilience(policy)
    if validate:
        federation.install_validator()
    return federation


# --------------------------------------------------------------------------- #
# Sweeps
# --------------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One executed sweep point: the scenario and its result."""

    scenario: Scenario
    result: FederationResult


class SweepResult:
    """Ordered collection of sweep points (insertion order of the grid)."""

    def __init__(self, points: Sequence[SweepPoint]):
        self.points = list(points)

    def scenarios(self) -> List[Scenario]:
        return [point.scenario for point in self.points]

    def results(self) -> List[FederationResult]:
        return [point.result for point in self.points]

    def __iter__(self) -> Iterator[Tuple[Scenario, FederationResult]]:
        return iter((p.scenario, p.result) for p in self.points)

    def __getitem__(self, index: int) -> SweepPoint:
        return self.points[index]

    def __len__(self) -> int:
        return len(self.points)


def _execute_point(
    item: Tuple[str, Scenario, Optional[Tuple[ArchiveResource, ...]]],
) -> Tuple[str, FederationResult]:
    """Worker function: run one point and return it with its cache key.

    Module-level so that :class:`ProcessPoolExecutor` can pickle it; also the
    serial execution path, so both paths share one code line per point.
    """
    key, scenario, resources = item
    return key, run_scenario(scenario, resources=resources)


#: Grid axes accepted by :meth:`SweepRunner.sweep` beyond raw field names.
_AXIS_ALIASES = {
    "profiles": ("oft_fraction", lambda pct: float(pct) / 100.0),
    "sizes": ("system_size", int),
    "seeds": ("seed", int),
}

_SCENARIO_FIELDS = frozenset(f.name for f in dataclasses.fields(Scenario))


class SweepRunner:
    """Expands parameter grids and executes them in parallel with memoisation.

    Parameters
    ----------
    workers:
        Default number of worker processes for :meth:`run` (``None`` or 1 =
        serial in-process execution).
    cache:
        Optional pre-seeded mapping from point key to result; pass a shared
        dict to memoise across runner instances.
    cache_dir:
        Directory for a disk-persistent memo cache
        (:class:`~repro.service.cache.PersistentResultCache`): completed
        points survive process restarts, and pointing this at a
        ``gridfed daemon``'s ``<state>/cache`` directory shares memoisation
        with the daemon.  Mutually exclusive with ``cache``.

    Examples
    --------
    >>> runner = SweepRunner(workers=4)                       # doctest: +SKIP
    >>> scenarios = runner.sweep(profiles=range(0, 101, 10),  # doctest: +SKIP
    ...                          sizes=(10, 20, 30, 40, 50))
    >>> sweep = runner.run(scenarios)                         # doctest: +SKIP

    Completed points are memoised on the scenario hash: re-running the same
    grid is free, and extending the grid only executes the new points.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[Dict[str, FederationResult]] = None,
        cache_dir: Optional[str] = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if cache is not None and cache_dir is not None:
            raise ValueError("pass cache or cache_dir, not both")
        self.workers = workers
        if cache_dir is not None:
            from repro.service.cache import PersistentResultCache

            cache = PersistentResultCache(cache_dir)
        self._cache: Dict[str, FederationResult] = {} if cache is None else cache
        #: Number of points actually executed (not served from cache).
        self.executed_points = 0

    # ------------------------------------------------------------------ #
    # Grid expansion
    # ------------------------------------------------------------------ #
    def sweep(self, base: Optional[Scenario] = None, **grid) -> List[Scenario]:
        """Expand a parameter grid into scenarios (cartesian product).

        Axes are either :class:`Scenario` field names (``seed=(1, 2, 3)``)
        or the conveniences ``profiles`` (OFT percentages mapped onto
        ``oft_fraction``), ``sizes`` (``system_size``) and ``seeds``.  Axis
        order is preserved: the *last* axis varies fastest, so
        ``sweep(sizes=(10, 20), profiles=(0, 100))`` yields the points in
        ``(10, 0), (10, 100), (20, 0), (20, 100)`` order.
        """
        base = Scenario() if base is None else base
        axes: List[List[Tuple[str, object]]] = []
        for name, values in grid.items():
            if name in _AXIS_ALIASES:
                field, convert = _AXIS_ALIASES[name]
                axis = [(field, convert(value)) for value in values]
            elif name in _SCENARIO_FIELDS:
                axis = [(name, value) for value in values]
            else:
                known = sorted(_SCENARIO_FIELDS | set(_AXIS_ALIASES))
                raise ValueError(
                    f"unknown sweep axis {name!r}; use a Scenario field or "
                    f"alias: {', '.join(known)}"
                )
            if not axis:
                raise ValueError(f"sweep axis {name!r} is empty")
            axes.append(axis)
        scenarios = [base]
        for axis in axes:
            scenarios = [
                scenario.replace(**{field: value})
                for scenario in scenarios
                for field, value in axis
            ]
        return scenarios

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    @staticmethod
    def _point_key(
        scenario: Scenario, resources: Optional[Sequence[ArchiveResource]]
    ) -> str:
        key = scenario.scenario_hash()
        if resources is not None:
            # Hash the full resource contents, not just the names: two lists
            # with identical names but different capacities/prices must not
            # share cached results.
            blob = json.dumps(
                [dataclasses.asdict(res) for res in resources],
                sort_keys=True,
                default=str,
            )
            key += ":" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
        return key

    def run(
        self,
        scenarios: Sequence[Scenario],
        *,
        resources: Optional[Sequence[ArchiveResource]] = None,
        workers: Optional[int] = None,
    ) -> SweepResult:
        """Execute every scenario (skipping memoised points) and collect results.

        Parameters
        ----------
        scenarios:
            The points to run, e.g. from :meth:`sweep`.
        resources:
            Explicit archive resources shared by every point (overrides each
            scenario's ``system_size``).
        workers:
            Worker processes for this run (overrides the constructor default;
            ``None`` or 1 = serial).  Parallel and serial execution produce
            identical results: every point re-seeds from its own scenario.
        """
        workers = self.workers if workers is None else workers
        keys = [self._point_key(scenario, resources) for scenario in scenarios]
        shipped = tuple(resources) if resources is not None else None
        pending: List[Tuple[str, Scenario, Optional[Tuple[ArchiveResource, ...]]]] = []
        seen = set()
        for key, scenario in zip(keys, scenarios):
            if key not in self._cache and key not in seen:
                seen.add(key)
                pending.append((key, scenario, shipped))
        if pending:
            if workers is not None and workers > 1 and len(pending) > 1:
                with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
                    completed = pool.map(_execute_point, pending)
                    for key, result in completed:
                        self._cache[key] = result
                        self.executed_points += 1
            else:
                for item in pending:
                    key, result = _execute_point(item)
                    self._cache[key] = result
                    self.executed_points += 1
        points = [
            SweepPoint(scenario=scenario, result=self._cache[key])
            for key, scenario in zip(keys, scenarios)
        ]
        return SweepResult(points)

    def clear_cache(self) -> None:
        """Drop every memoised point."""
        self._cache.clear()
