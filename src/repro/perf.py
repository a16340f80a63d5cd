"""Hot-path performance benchmark suite (``gridfed bench`` / ``gridfed profile``).

The paper *assumes* an ``O(log n)``-cost directory and never measures it; this
module is the repository's measured performance trajectory.  These layers of
the scheduling hot path are timed:

* **Directory rank queries** — a simulated DBC negotiation probe schedule
  answered by resumable cursor sessions (``O(log n + k)`` per job).
* **Event kernel** — schedule/cancel/fire throughput through the full
  :class:`~repro.sim.engine.Simulator`: its heap plus the engine's fixed
  per-event overhead.
* **Table-3 federation run** — the full Experiment 2 simulation end to end,
  with its :func:`~repro.scenario.runner.result_fingerprint` recorded next
  to the timing.
* **Economy run** — the Experiment 5 economy shape (OFT 30%, two-tier WAN,
  ``thin=32``) at large federation sizes, serial, with its DBC rounds per
  job, microseconds per job and fingerprint next to the timing.
* **Workload generation** — :func:`~repro.workload.archive.build_workload`
  on the Table-3 sizes, with a sha256 of every generated job's fields
  recorded next to the timing.
* **Resilience overhead** — the Table-3 run with no policy vs the inert one.
* **Parallel engine** — the Exp-5 economy shape per worker count.
* **Service** — fresh daemon submissions run through the daemon's worker
  function, against the same runs with no hooks.

The ``xl`` scale pushes the directory benchmark to 512/1024 clusters (via
Table-1 replication) and the end-to-end run to 1024 clusters — far beyond
the paper's 64-cluster Experiment 5.

Every benchmark row carries the same three fields, and nothing downstream
reads any other: its tracked ``key`` (which embeds the workload parameters,
so only like-for-like runs compare), its gated wall-clock ``seconds``, and a
``problem`` — ``None``, or why the row's own correctness check failed.  The
other fields of a row describe its run for readers of the JSON report.
:func:`run_benchmarks` executes every section at a named scale and returns
the report; :func:`write_report` emits ``benchmarks/BENCH_perf.json``
(git-ignored); :func:`render_comparison` is the CI regression gate (fail on
any row's ``problem``, or when a tracked timing exceeds the checked-in
baseline by more than a factor) and prints it as a per-benchmark ratio table
(``gridfed bench --compare``).  :func:`profile_scenario` backs the
``gridfed profile`` subcommand: one cProfile'd scenario run rendered as a
top-N cumulative-time hotspot table, so future perf work starts from data.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import platform
import pstats
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.policies import SharingMode
from repro.p2p.directory import FederationDirectory, RankCriterion
from repro.scenario import Scenario, result_fingerprint, run_scenario
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.archive import (
    ARCHIVE_RESOURCES,
    build_federation_specs,
    build_workload,
    replicate_resources,
)
from repro.workload.job import Job, reset_job_counter

__all__ = [
    "BENCH_SCALES",
    "BenchScale",
    "bench_directory_queries",
    "bench_event_kernel",
    "bench_table3",
    "bench_economy",
    "bench_workload",
    "bench_resilience_overhead",
    "bench_parallel_engine",
    "bench_service",
    "run_benchmarks",
    "write_report",
    "render_comparison",
    "render_report",
    "profile_scenario",
]

#: Schema tag written into every report (bump on incompatible layout changes).
#: v2: per-backend ``queue_kernel`` / ``event_kernel`` row lists and the
#: ``transport`` fast-path section replaced the single v1 kernel record.
#: v3: ``queue_kernel`` is gone and ``event_kernel`` holds one row (the one
#: event kernel), keyed without a backend.
#: v4: one ``rows`` list replaces the per-section lists; every row carries
#: ``key``, ``seconds`` and ``problem``.
REPORT_SCHEMA = "gridfed-bench/4"

#: Baselines under this many seconds are scheduler noise on shared CI runners:
#: excluded from the wall-clock regression gate and labelled "noise" in the
#: --compare table (one constant so the verdict and the table never drift).
NOISE_FLOOR_S = 1e-2

#: Largest federation size where each parallel row also runs the in-process
#: oracle backend and checks fingerprint equality (beyond it the doubled
#: wall-clock isn't worth re-proving what the test suite already covers at
#: small sizes).
PAR_PARITY_LIMIT = 256


@dataclass(frozen=True)
class BenchScale:
    """One benchmark scale: how big each micro/macro benchmark runs."""

    name: str
    #: Federation sizes for the directory micro-benchmark.
    sizes: Tuple[int, ...]
    #: Simulated negotiation sequences (jobs) per size.
    probe_jobs: int
    #: Events pushed through the engine-level kernel benchmark.
    events: int
    #: ``thin`` for the Table-3 end-to-end run (1 = full workload).
    table3_thin: int
    #: Federation sizes for the end-to-end run (None = the paper's 8 resources).
    table3_sizes: Tuple[Optional[int], ...]
    #: Federation sizes for the Exp-5 economy run.
    economy_sizes: Tuple[int, ...]
    #: Timing repetitions; the minimum is reported (noise suppression).
    repeats: int
    #: Federation size for the parallel-engine benchmark (Exp-5 economy shape
    #: on the two-tier WAN so conservative lookahead exists).
    par_size: int = 64
    #: ``thin`` for the parallel-engine benchmark.
    par_thin: int = 4
    #: Worker counts timed by the parallel-engine benchmark (1 = the serial
    #: baseline the speedup column is relative to).
    par_workers: Tuple[int, ...] = (1, 2)
    #: Fresh submissions timed by the service benchmark.
    service_runs: int = 10


BENCH_SCALES: Dict[str, BenchScale] = {
    # CI smoke scale: a few seconds total, still reaching 64 clusters.
    "smoke": BenchScale(
        "smoke",
        sizes=(16, 64),
        probe_jobs=200,
        events=30_000,
        table3_thin=4,
        table3_sizes=(None,),
        economy_sizes=(128,),
        repeats=2,
        par_size=64,
        par_thin=4,
        par_workers=(1, 2),
        service_runs=10,
    ),
    "full": BenchScale(
        "full",
        sizes=(16, 64, 128),
        probe_jobs=60,
        events=200_000,
        table3_thin=1,
        table3_sizes=(None, 32),
        economy_sizes=(1024, 2048),
        repeats=3,
        par_size=256,
        par_thin=8,
        par_workers=(1, 2, 4),
        service_runs=40,
    ),
    # Scale-out tier: the paper's Experiment 5 stops at 64 clusters.
    "xl": BenchScale(
        "xl",
        sizes=(512, 1024),
        probe_jobs=12,
        events=500_000,
        table3_thin=8,
        table3_sizes=(256, 1024),
        economy_sizes=(4096,),
        repeats=1,
        par_size=4096,
        par_thin=32,
        par_workers=(1, 8),
        service_runs=40,
    ),
}


def _best_of(repeats: int, fn: Callable[[], float]) -> float:
    """Minimum wall-clock of ``repeats`` runs of ``fn`` (itself returning seconds)."""
    return min(fn() for _ in range(max(1, repeats)))


def _row(
    key: str, seconds: float, problem: Optional[str] = None, **details
) -> Dict[str, object]:
    """One benchmark row: the three fields the gate reads, then ``details``.

    ``key`` is relative to the row's section; :func:`run_benchmarks`
    prefixes the section name.
    """
    return {"key": key, "seconds": seconds, "problem": problem, **details}


# --------------------------------------------------------------------------- #
# Directory rank-query micro-benchmark
# --------------------------------------------------------------------------- #
def _build_directory(num_clusters: int) -> FederationDirectory:
    directory = FederationDirectory()
    for spec in build_federation_specs(replicate_resources(num_clusters)):
        directory.subscribe(spec.name, spec)
    return directory


def _probe_schedule(
    directory: FederationDirectory, probe_jobs: int, seed: int = 7
) -> List[Tuple[RankCriterion, int, int]]:
    """A DBC-like probe plan: per job a criterion, processor filter and depth.

    Depths are skewed the way negotiations are — most jobs place within a few
    rounds, a tail walks deep into the ranking — and every job ends with the
    exhausted probe (rank beyond the last match) exactly like a rejected job's
    final query.
    """
    rng = np.random.default_rng(seed)
    processor_choices = sorted({q.spec.num_processors for q in directory.quotes()})
    plan: List[Tuple[RankCriterion, int, int]] = []
    n = len(directory)
    for _ in range(probe_jobs):
        criterion = RankCriterion.CHEAPEST if rng.random() < 0.5 else RankCriterion.FASTEST
        min_processors = int(processor_choices[int(rng.integers(len(processor_choices)))])
        depth = 1 + int(rng.integers(1, max(2, n)) * rng.random() * rng.random())
        plan.append((criterion, min_processors, depth))
    return plan


def _run_probe_plan(
    directory: FederationDirectory, plan: Sequence[Tuple[RankCriterion, int, int]]
) -> Tuple[float, int]:
    """Answer the probe plan, one session per job; return (seconds, probes)."""
    probes = 0
    start = time.perf_counter()
    for criterion, min_processors, depth in plan:
        session = directory.open_session(criterion, min_processors)
        for rank in range(1, depth + 1):
            probes += 1
            if session.kth(rank) is None:
                break
    return time.perf_counter() - start, probes


def bench_directory_queries(
    sizes: Sequence[int], probe_jobs: int, repeats: int = 1
) -> List[Dict[str, object]]:
    """Time resumable query sessions on a DBC-like probe plan per size."""
    rows: List[Dict[str, object]] = []
    for size in sizes:
        directory = _build_directory(size)
        plan = _probe_schedule(directory, probe_jobs)
        outcome: Dict[str, int] = {}

        def once() -> float:
            seconds, outcome["probes"] = _run_probe_plan(directory, plan)
            return seconds

        seconds = _best_of(repeats, once)
        rows.append(
            _row(
                f"{size}x{probe_jobs}/session_s",
                seconds,
                clusters=int(size),
                probe_jobs=int(probe_jobs),
                probes=outcome["probes"],
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# Event-kernel throughput micro-benchmark
# --------------------------------------------------------------------------- #
def bench_event_kernel(events: int, repeats: int = 1, seed: int = 0) -> Dict[str, object]:
    """Schedule/cancel/fire ``events`` callbacks; report events per second.

    Every event is scheduled up front at a random time and ~5% of them are
    cancelled, by the sequence number ``schedule`` returned, before firing.
    Runs through the full :class:`Simulator`, so it includes the engine's
    fixed per-event overhead: one heap tuple and one live-set entry each.
    """
    rng = np.random.default_rng(seed)
    delays = rng.random(events) * 1_000.0
    cancel_mask = rng.random(events) < 0.05

    def once() -> float:
        sim = Simulator()
        sink: List[float] = []
        start = time.perf_counter()
        seqs = [sim.schedule(float(delay), sink.append, float(delay)) for delay in delays]
        for seq, cancel in zip(seqs, cancel_mask):
            if cancel:
                sim.cancel(seq)
        sim.run()
        elapsed = time.perf_counter() - start
        assert sim.pending == 0
        return elapsed

    seconds = _best_of(repeats, once)
    fired = int(events - int(cancel_mask.sum()))
    return _row(
        f"{events}/seconds",
        seconds,
        events_scheduled=int(events),
        events_fired=fired,
        events_per_s=fired / max(seconds, 1e-12),
    )


# --------------------------------------------------------------------------- #
# Table-3 end-to-end benchmark
# --------------------------------------------------------------------------- #
def bench_table3(
    thin: int,
    repeats: int = 1,
    seed: int = 42,
    system_sizes: Sequence[Optional[int]] = (None,),
) -> List[Dict[str, object]]:
    """Time the full Table-3 federation run end to end.

    ``system_sizes`` entries are federation sizes via Table-1 replication;
    ``None`` is the paper's own eight resources.  Each row records the run's
    fingerprint next to its timing; its key keeps the ``session_s`` suffix
    so existing baselines stay comparable.
    """
    rows: List[Dict[str, object]] = []
    for size in system_sizes:
        scenario = Scenario(
            mode=SharingMode.FEDERATION, seed=seed, thin=thin, system_size=size
        )
        outcome: Dict[str, object] = {}

        def once() -> float:
            start = time.perf_counter()
            result = run_scenario(scenario)
            elapsed = time.perf_counter() - start
            outcome["jobs"] = len(result.jobs)
            outcome["events"] = result.events_processed
            outcome["fingerprint"] = result_fingerprint(result)
            return elapsed

        seconds = _best_of(repeats, once)
        clusters = 8 if size is None else int(size)
        rows.append(
            _row(
                f"{clusters}@thin{thin}/session_s",
                seconds,
                clusters=clusters,
                thin=int(thin),
                jobs=outcome["jobs"],
                events=outcome["events"],
                fingerprint=outcome["fingerprint"],
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# Exp-5 economy benchmark
# --------------------------------------------------------------------------- #
#: ``thin`` of the economy rows: the Exp-5 shape at large federation sizes.
ECONOMY_THIN = 32


def bench_economy(
    system_sizes: Sequence[int], repeats: int = 1, seed: int = 42
) -> List[Dict[str, object]]:
    """Time the Exp-5 economy run (OFT 30%, two-tier WAN, serial) per size.

    Replicated Table-1 rows tie in the directory's rankings, so each job's
    DBC walk probes the same busy prefix, and its rounds per job grow with
    the federation.  Each row records the minimum time, and the last run's
    jobs, mean negotiation rounds per job, microseconds per job (at the
    minimum time), ledger messages and fingerprint.
    """
    rows: List[Dict[str, object]] = []
    for size in system_sizes:
        scenario = Scenario(
            mode=SharingMode.ECONOMY,
            oft_fraction=0.3,
            system_size=size,
            thin=ECONOMY_THIN,
            transport="two-tier-wan",
            seed=seed,
        )
        outcome: Dict[str, object] = {}

        def once() -> float:
            start = time.perf_counter()
            result = run_scenario(scenario)
            elapsed = time.perf_counter() - start
            outcome["jobs"] = len(result.jobs)
            outcome["rounds"] = sum(job.negotiation_rounds for job in result.jobs)
            outcome["messages"] = result.message_log.total_messages
            outcome["fingerprint"] = result_fingerprint(result)
            return elapsed

        seconds = _best_of(repeats, once)
        jobs = int(outcome["jobs"])
        rows.append(
            _row(
                f"{size}@thin{ECONOMY_THIN}/seconds",
                seconds,
                clusters=int(size),
                thin=ECONOMY_THIN,
                jobs=jobs,
                rounds_per_job=outcome["rounds"] / max(jobs, 1),
                us_per_job=1e6 * seconds / max(jobs, 1),
                messages=outcome["messages"],
                fingerprint=outcome["fingerprint"],
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# Workload-generation benchmark
# --------------------------------------------------------------------------- #
def _workload_digest(workload: Dict[str, List[Job]]) -> str:
    """sha256 of every job's fields, resource by resource, in job order."""
    digest = hashlib.sha256()
    for name, jobs in workload.items():
        digest.update(repr(name).encode("utf-8"))
        for job in jobs:
            digest.update(repr(vars(job)).encode("utf-8"))
    return digest.hexdigest()


def bench_workload(
    thin: int,
    repeats: int = 1,
    seed: int = 42,
    system_sizes: Sequence[Optional[int]] = (None,),
) -> List[Dict[str, object]]:
    """Time :func:`~repro.workload.archive.build_workload` per federation size.

    ``system_sizes`` are as in :func:`bench_table3`: a size replicates the
    Table-1 resources, ``None`` is the paper's eight.  Each build starts
    from job id 1 at ``seed``, as a scenario's does.  Each row records the
    minimum time, and the job count and :func:`_workload_digest` of the
    last build.
    """
    rows: List[Dict[str, object]] = []
    for size in system_sizes:
        resources = list(ARCHIVE_RESOURCES) if size is None else replicate_resources(size)
        outcome: Dict[str, Dict[str, List[Job]]] = {}

        def once() -> float:
            reset_job_counter()
            start = time.perf_counter()
            outcome["workload"] = build_workload(RandomStreams(seed), resources, thin=thin)
            return time.perf_counter() - start

        seconds = _best_of(repeats, once)
        workload = outcome["workload"]
        rows.append(
            _row(
                f"{len(resources)}@thin{thin}/build_s",
                seconds,
                clusters=len(resources),
                thin=int(thin),
                jobs=sum(len(jobs) for jobs in workload.values()),
                fingerprint=_workload_digest(workload),
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# Resilience-layer overhead benchmark
# --------------------------------------------------------------------------- #
def bench_resilience_overhead(
    thin: int,
    repeats: int = 1,
    seed: int = 42,
    system_sizes: Sequence[Optional[int]] = (None,),
) -> List[Dict[str, object]]:
    """Time the Table-3 run with the resilience layer absent vs inert.

    ``paper`` installs nothing; ``noop`` installs the inert policy, so every
    hot-path ``gfa.resilience is not None`` guard takes the instrumented
    branch without a single retry, breaker trip or eviction firing.  On a
    fault-free run the two must produce identical result fingerprints (the
    row's check), and the wall-clock ratio bounds the cost the policy
    plumbing adds to the negotiation hot path — the acceptance claim is "no
    measurable overhead", so the ratio should sit at ~1.0x within noise.
    The gated timing is the ``noop`` run's.
    """
    rows: List[Dict[str, object]] = []
    for size in system_sizes:
        fingerprints: Dict[str, str] = {}
        timings: Dict[str, float] = {}
        stats: Dict[str, Tuple[int, int]] = {}

        def once(policy: str) -> float:
            scenario = Scenario(
                mode=SharingMode.FEDERATION,
                seed=seed,
                thin=thin,
                system_size=size,
                resilience=policy,
            )
            start = time.perf_counter()
            result = run_scenario(scenario)
            elapsed = time.perf_counter() - start
            fingerprints[policy] = result_fingerprint(result)
            stats[policy] = (len(result.jobs), result.events_processed)
            return elapsed

        # One untimed warmup, then alternate the variants: the delta under
        # measurement is a few percent, smaller than the systematic speedup
        # later runs of an identical workload get from warm interpreter
        # state, so back-to-back blocks per variant would bias whichever ran
        # second.
        once("paper")
        for _ in range(max(1, repeats)):
            for policy in ("paper", "noop"):
                elapsed = once(policy)
                best = timings.get(policy)
                timings[policy] = elapsed if best is None else min(best, elapsed)
        jobs, events = stats["paper"]
        clusters = 8 if size is None else int(size)
        rows.append(
            _row(
                f"{clusters}@thin{thin}/noop_s",
                timings["noop"],
                None
                if fingerprints["paper"] == fingerprints["noop"]
                else "paper and inert-policy runs diverged (fingerprint mismatch)",
                clusters=clusters,
                thin=int(thin),
                jobs=jobs,
                events=events,
                paper_s=timings["paper"],
                overhead=timings["noop"] / max(timings["paper"], 1e-12),
                fingerprint=fingerprints["paper"],
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# Parallel-engine end-to-end benchmark
# --------------------------------------------------------------------------- #
def bench_parallel_engine(
    size: int,
    thin: int,
    worker_counts: Sequence[int] = (1, 2),
    repeats: int = 1,
    seed: int = 42,
    topology: str = "two-tier-wan",
) -> List[Dict[str, object]]:
    """Time the Exp-5 economy shape under the conservative parallel engine.

    The scenario is the scalability experiment's economy federation (OFT 30%)
    replicated to ``size`` clusters on the two-tier WAN — the topology whose
    nonzero cross-shard latency gives the engine its lookahead window.  Each
    worker count is timed end to end through :func:`run_scenario`; ``1`` is
    the serial baseline every ``speedup_vs_serial`` column is relative to.

    Each parallel row is checked two ways.  A row that silently degraded to
    the serial path reports the engine's fallback diagnostic as its
    ``problem`` (a benchmark that isn't measuring what its label claims is
    worse than no benchmark); and up to :data:`PAR_PARITY_LIMIT` clusters it
    re-runs the identical sharded model on the in-process oracle backend,
    and a fingerprint that differs from the process backend's is its
    ``problem`` — the oracle ≡ process guarantee re-proven on every
    benchmark run.
    """
    rows: List[Dict[str, object]] = []
    serial_s: Optional[float] = None
    scenario = Scenario(
        mode=SharingMode.ECONOMY,
        oft_fraction=0.3,
        seed=seed,
        thin=thin,
        system_size=size,
        transport=topology,
    )
    for workers in worker_counts:
        state: Dict[str, object] = {}

        def once(workers: int = workers) -> float:
            start = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                result = run_scenario(scenario.replace(parallel=workers))
            elapsed = time.perf_counter() - start
            state["fingerprint"] = result_fingerprint(result)
            state["jobs"] = len(result.jobs)
            state["events"] = result.events_processed
            state["parallel"] = result.parallel
            return elapsed

        seconds = _best_of(repeats, once)
        par = state["parallel"]
        ran_parallel = par is not None and par.ran_parallel
        problem: Optional[str] = None
        if workers > 1 and par is not None and not ran_parallel:
            problem = (
                f"parallel row fell back to the serial path ({par.fallback_reason})"
                " — the timing does not measure the parallel engine"
            )
        elif ran_parallel and size <= PAR_PARITY_LIMIT:
            from repro.par.runner import try_parallel_run

            oracle_result, _ = try_parallel_run(
                scenario, workers=workers, backend="oracle"
            )
            if (
                oracle_result is None
                or result_fingerprint(oracle_result) != state["fingerprint"]
            ):
                problem = "process and oracle backends diverged (fingerprint mismatch)"
        if serial_s is None and workers <= 1:
            serial_s = seconds
        rows.append(
            _row(
                f"{size}@thin{thin}/w{workers}/seconds",
                seconds,
                problem,
                workers=int(workers),
                clusters=int(size),
                thin=int(thin),
                jobs=state["jobs"],
                events=state["events"],
                speedup_vs_serial=(
                    serial_s / max(seconds, 1e-12)
                    if serial_s is not None and workers > 1
                    else None
                ),
                windows=par.windows if ran_parallel else None,
                cross_messages=par.cross_messages if ran_parallel else None,
                fingerprint=state["fingerprint"],
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# Service benchmark
# --------------------------------------------------------------------------- #
def bench_service(
    runs: int, thin: int = 30, repeats: int = 1, seed: int = 42
) -> List[Dict[str, object]]:
    """Time ``runs`` fresh daemon submissions against the same runs plain.

    The scenarios are the daemon workload's shape: the paper's federation
    at ``thin``, one seed each.  Each is queued as a record in a temporary
    :class:`~repro.service.daemon.DaemonState` and run by
    :func:`~repro.service.daemon.execute_submission` — what a daemon worker
    does for a fresh submission: record updates, the memo-cache check and
    write, the hourly boundaries with their progress reports and
    checkpoints, and the result summary.  The gated timing is that total;
    ``plain_s`` is the same runs through :func:`run_scenario` with no hooks,
    and ``overhead`` their ratio.  The row's check fails when a record does
    not end ``completed`` or its fingerprint differs from the plain run's.
    """
    from repro.service.checkpoint import DEFAULT_CHECKPOINT_INTERVAL
    from repro.service.daemon import DaemonState, execute_submission, scenario_to_fields

    scenarios = [
        Scenario(mode=SharingMode.FEDERATION, thin=thin, seed=seed + index)
        for index in range(runs)
    ]
    sids = [f"job-{order:06d}" for order in range(1, runs + 1)]
    plain: List[str] = []
    records: List[Optional[Dict[str, object]]] = []

    def run_plain() -> float:
        start = time.perf_counter()
        plain[:] = [result_fingerprint(run_scenario(scenario)) for scenario in scenarios]
        return time.perf_counter() - start

    def run_service() -> float:
        with tempfile.TemporaryDirectory(prefix="gridfed-bench-service-") as directory:
            state = DaemonState(directory)
            for order, (sid, scenario) in enumerate(zip(sids, scenarios), 1):
                state.save_record(
                    {
                        "id": sid,
                        "order": order,
                        "scenario": scenario_to_fields(scenario),
                        "status": "queued",
                    }
                )
            start = time.perf_counter()
            for sid in sids:
                execute_submission(directory, sid, DEFAULT_CHECKPOINT_INTERVAL)
            elapsed = time.perf_counter() - start
            records[:] = [state.load_record(sid) for sid in sids]
        return elapsed

    plain_s = _best_of(repeats, run_plain)
    seconds = _best_of(repeats, run_service)
    problem: Optional[str] = None
    for sid, record, fingerprint in zip(sids, records, plain):
        record = record or {}
        if record.get("status") != "completed":
            problem = f"{sid} ended {record.get('status')}: {record.get('error')}"
            break
        if record.get("fingerprint") != fingerprint:
            problem = f"{sid}'s fingerprint differs from its plain run's"
            break
    return [
        _row(
            f"{runs}@thin{thin}/seconds",
            seconds,
            problem,
            runs=int(runs),
            thin=int(thin),
            plain_s=plain_s,
            overhead=seconds / max(plain_s, 1e-12),
        )
    ]


# --------------------------------------------------------------------------- #
# Suite driver, report and regression gate
# --------------------------------------------------------------------------- #
def run_benchmarks(
    scale: Union[str, BenchScale] = "smoke", seed: int = 42
) -> Dict[str, object]:
    """Run every section at a scale; return the JSON-serialisable report.

    The report's ``rows`` hold every section's rows in order, each key
    prefixed with its section name.
    """
    if isinstance(scale, str):
        try:
            scale = BENCH_SCALES[scale]
        except KeyError:
            raise ValueError(
                f"unknown bench scale {scale!r}; choose from {sorted(BENCH_SCALES)}"
            ) from None
    sections: Dict[str, Callable[[], List[Dict[str, object]]]] = {
        "directory_query": lambda: bench_directory_queries(
            scale.sizes, scale.probe_jobs, repeats=scale.repeats
        ),
        "event_kernel": lambda: [bench_event_kernel(scale.events, repeats=scale.repeats)],
        "table3": lambda: bench_table3(
            scale.table3_thin,
            repeats=scale.repeats,
            seed=seed,
            system_sizes=scale.table3_sizes,
        ),
        "economy": lambda: bench_economy(
            scale.economy_sizes, repeats=scale.repeats, seed=seed
        ),
        "workload": lambda: bench_workload(
            scale.table3_thin,
            repeats=scale.repeats,
            seed=seed,
            system_sizes=scale.table3_sizes,
        ),
        "resilience": lambda: bench_resilience_overhead(
            scale.table3_thin,
            # The overhead under measurement is expected to be ~zero — noise
            # suppression needs at least two repetitions per variant.
            repeats=max(2, scale.repeats),
            seed=seed,
            system_sizes=(scale.table3_sizes[-1],),
        ),
        "par": lambda: bench_parallel_engine(
            scale.par_size,
            scale.par_thin,
            worker_counts=scale.par_workers,
            repeats=scale.repeats,
            seed=seed,
        ),
        "service": lambda: bench_service(
            scale.service_runs, repeats=scale.repeats, seed=seed
        ),
    }
    return {
        "schema": REPORT_SCHEMA,
        "scale": scale.name,
        "seed": seed,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "rows": [
            {**row, "key": f"{section}/{row['key']}"}
            for section, bench in sections.items()
            for row in bench()
        ],
    }


def write_report(
    report: Dict[str, object], path: Union[str, Path] = "benchmarks/BENCH_perf.json"
) -> Path:
    """Write a benchmark report to disk and return its path.

    The default lands next to the checked-in baseline under ``benchmarks/``
    (and is git-ignored there) rather than polluting the repository root.
    """
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _tracked_timings(report: Dict[str, object]) -> Dict[str, float]:
    """The wall-clock metrics the regression gate watches (smaller is better).

    Keys embed the workload parameters (clusters, probes, events, thinning),
    so only like-for-like runs compare — gating a full-scale report against a
    smoke baseline simply finds no common metrics instead of false alarms.
    """
    return {row["key"]: float(row["seconds"]) for row in report["rows"]}


def render_comparison(
    report: Dict[str, object],
    baseline: Dict[str, object],
    max_regression: float = 3.0,
) -> Tuple[str, List[str]]:
    """The regression gate: a per-benchmark ratio table plus its problems.

    Returns ``(table_text, problems)``; an empty ``problems`` list means the
    gate passed.  A row fails when its own check reported a ``problem``
    (regardless of timing), or when its timing exceeds the baseline's by
    more than ``max_regression``×.  Every tracked timing gets one table row:
    baseline seconds, current seconds, the current/baseline ratio and a
    status — ``ok`` (within the gate), ``FAIL`` (beyond it, or its check
    failed), ``noise`` (baseline under the 10 ms floor: scheduler noise on a
    shared CI runner, not gated), ``new`` (absent from the baseline, so new
    benchmarks don't fail old baselines) or ``absent`` (in the baseline
    only).  A report that shares no gated timing with the baseline fails
    too.  This is what ``gridfed bench --compare`` prints, so a red CI run
    shows the whole picture instead of one assert.
    """
    from repro.metrics.report import render_table

    current = _tracked_timings(report)
    previous = _tracked_timings(baseline)
    checks = {row["key"]: row["problem"] for row in report["rows"]}
    rows: List[List[object]] = []
    problems: List[str] = []
    compared = 0
    for key in sorted(current):
        value, base = current[key], previous.get(key)
        if base is None:
            status = "new"
        elif base < NOISE_FLOOR_S:
            status = "noise"
        else:
            compared += 1
            status = "ok"
            if value > base * max_regression:
                status = "FAIL"
                problems.append(
                    f"{key}: {value:.4f}s exceeds {max_regression:.1f}x baseline ({base:.4f}s)"
                )
        if checks[key]:
            status = "FAIL"
            problems.append(f"{key}: {checks[key]}")
        if base is None:
            rows.append([key, "-", f"{value:.4f}", "-", status])
        else:
            ratio = value / max(base, 1e-12)
            rows.append([key, f"{base:.4f}", f"{value:.4f}", f"{ratio:.2f}x", status])
    for key in sorted(set(previous) - set(current)):
        rows.append([key, f"{previous[key]:.4f}", "-", "-", "absent"])
    if compared == 0 and not problems:
        problems.append(
            "no comparable metrics between report and baseline "
            f"(report scale {report.get('scale')!r} vs baseline scale "
            f"{baseline.get('scale')!r}) — regenerate the baseline at the same scale"
        )
    table = render_table(
        ["Benchmark", "Baseline s", "Current s", "Ratio", "Status"],
        rows,
        title=(
            f"Benchmark comparison — gate {max_regression:.1f}x "
            f"({'FAIL' if problems else 'pass'})"
        ),
    )
    return table, problems


def render_report(report: Dict[str, object]) -> str:
    """Human-readable summary of a benchmark report (for the CLI)."""
    from repro.metrics.report import render_table

    return render_table(
        ["Benchmark", "Seconds", "Check"],
        [
            [row["key"], f"{row['seconds']:.4f}", row["problem"] or "ok"]
            for row in report["rows"]
        ],
        title=f"gridfed bench — {report['scale']} scale, seed {report['seed']}",
    )


# --------------------------------------------------------------------------- #
# Scenario profiling (``gridfed profile``)
# --------------------------------------------------------------------------- #
def _hotspot_table(stats: pstats.Stats, top: int, sort: str) -> str:
    """Render a pstats object as the top-``top`` hotspot table."""
    from repro.metrics.report import render_table

    sort_index = 3 if sort == "cumulative" else 2  # (cc, nc, tt, ct) layout
    entries = sorted(
        stats.stats.items(), key=lambda item: item[1][sort_index], reverse=True
    )
    rows: List[List[object]] = []
    for (filename, lineno, funcname), (cc, nc, tt, ct, _callers) in entries[:top]:
        if filename.startswith("~"):
            location = funcname  # built-ins have no file
        else:
            location = f"{Path(filename).name}:{lineno}:{funcname}"
        calls = str(nc) if nc == cc else f"{nc}/{cc}"
        rows.append([calls, f"{tt:.4f}", f"{ct:.4f}", location])
    return render_table(
        ["Calls", "Total s", "Cumulative s", "Function"],
        rows,
        title=f"Hotspots — top {min(top, len(rows))} by {sort} time",
    )


def profile_scenario(
    scenario: Scenario,
    top: int = 25,
    sort: str = "cumulative",
) -> str:
    """Run one scenario under cProfile and render its hotspot table.

    Returns the run summary plus a top-``top`` table sorted by ``sort``
    (``"cumulative"`` or ``"tottime"``): calls, total time (excluding
    subcalls), cumulative time, and the function's location.  This is the
    starting point the perf PRs work from — measure, then optimise.

    With ``scenario.parallel >= 2`` the scenario runs on the parallel engine
    with one cProfile per worker process; the per-shard profiles are merged
    (:meth:`pstats.Stats.add`) into a single federation-wide hotspot table,
    and the summary carries the engine's ``par:`` line.  An ineligible
    scenario falls back to the serial profile with the fallback diagnostic
    in the summary — same behaviour as ``gridfed run --workers``.
    """
    if sort not in ("cumulative", "tottime"):
        raise ValueError(f"sort must be 'cumulative' or 'tottime', got {sort!r}")
    if top < 1:
        raise ValueError(f"top must be at least 1, got {top}")
    par_note = ""
    if scenario.parallel >= 2:
        from repro.par.runner import try_parallel_run

        with tempfile.TemporaryDirectory(prefix="gridfed-profile-") as tmp:
            start = time.perf_counter()
            result, par_stats = try_parallel_run(
                scenario, workers=scenario.parallel, profile_dir=tmp
            )
            elapsed = time.perf_counter() - start
            if result is not None:
                paths = sorted(Path(tmp).glob("shard-*.pstats"))
                stats = pstats.Stats(str(paths[0]))
                for path in paths[1:]:
                    stats.add(str(path))
                summary = (
                    f"profiled {scenario.describe()}\n"
                    f"par: {par_stats.describe()}\n"
                    f"jobs={len(result.jobs)} events={result.events_processed} "
                    f"wall={elapsed:.3f}s (profiler overhead included; "
                    f"{len(paths)} worker profiles merged)\n"
                )
                return summary + _hotspot_table(stats, top, sort)
        # Ineligible for the parallel engine: profile serially, but carry the
        # diagnostic so the fallback is visible in the report header.
        par_note = f"par: {par_stats.describe()}\n"
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = run_scenario(scenario.replace(parallel=0))
    profiler.disable()
    elapsed = time.perf_counter() - start
    summary = (
        f"profiled {scenario.describe()}\n"
        + par_note
        + f"jobs={len(result.jobs)} events={result.events_processed} "
        f"wall={elapsed:.3f}s (profiler overhead included)\n"
    )
    return summary + _hotspot_table(pstats.Stats(profiler), top, sort)
