"""Synthetic parallel-workload generation.

The paper replays two days of real traces from the Parallel Workloads Archive.
Those traces cannot be redistributed here, so this module generates synthetic
traces with the statistical features that drive the paper's results:

* a *job count* per resource matching the two-day windows of Table 2,
* a daily arrival cycle (more submissions during working hours),
* power-of-two dominated processor requests, as observed in all archive logs,
* heavy-tailed (lognormal) runtimes,
* an *offered load* (requested node-seconds / available node-seconds) tuned so
  that each resource lands in the same utilisation / rejection regime as the
  paper's Table 2, and
* a communication-overhead component equal to 10 % of the total execution time
  on the originating resource (Section 3.1).

The generated jobs are plain :class:`~repro.workload.job.Job` objects, so real
SWF traces read through :mod:`repro.workload.trace` are interchangeable with
synthetic ones everywhere in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.workload.job import Job, QoSStrategy, advance_job_counter, job_counter_state


@dataclass(frozen=True)
class WorkloadParameters:
    """Parameters of a synthetic per-resource workload.

    Attributes
    ----------
    resource_name:
        Name of the originating cluster (becomes ``Job.origin``).
    num_jobs:
        Number of jobs to generate.
    horizon:
        Length of the submission window in seconds (two days in the paper).
    offered_load:
        Target ratio of requested node-seconds to ``capacity * horizon``.
    max_processors:
        Cluster size; processor requests never exceed this.
    mips:
        Per-processor speed of the originating cluster (used to convert
        runtimes into job lengths in MI).
    bandwidth_gbps:
        Interconnect bandwidth of the originating cluster (used to convert
        the communication share of the runtime into a data volume).
    comm_fraction:
        Fraction of the total execution time on the origin spent in
        communication (0.1 in the paper).
    num_users:
        Size of the local user population to spread jobs over.
    serial_fraction:
        Fraction of jobs requesting a single processor.
    mean_log_runtime, sigma_log_runtime:
        Parameters of the lognormal runtime distribution *before* rescaling
        to the offered load (the rescaling preserves the shape).
    day_fraction:
        Fraction of jobs submitted during working hours (daily cycle).
    workday_start_hour, workday_end_hour:
        The working hours, ``0 <= start < end <= 24``; the window does not
        wrap past midnight.
    """

    resource_name: str
    num_jobs: int
    horizon: float
    offered_load: float
    max_processors: int
    mips: float
    bandwidth_gbps: float
    comm_fraction: float = 0.1
    num_users: int = 20
    serial_fraction: float = 0.25
    max_job_fraction: float = 0.25
    mean_log_runtime: float = 8.0
    sigma_log_runtime: float = 1.2
    max_runtime_fraction: float = 0.15
    day_fraction: float = 0.7
    workday_start_hour: float = 8.0
    workday_end_hour: float = 18.0

    def __post_init__(self) -> None:
        if self.num_jobs < 1:
            raise ValueError("num_jobs must be at least 1")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.offered_load <= 0:
            raise ValueError("offered_load must be positive")
        if self.max_processors < 1:
            raise ValueError("max_processors must be at least 1")
        if not self.mips > 0:
            raise ValueError("mips must be positive")
        if not 0.0 <= self.comm_fraction < 1.0:
            raise ValueError("comm_fraction must lie in [0, 1)")
        if self.num_users < 1:
            raise ValueError("num_users must be at least 1")
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise ValueError("serial_fraction must lie in [0, 1]")
        if not 0.0 <= self.day_fraction <= 1.0:
            raise ValueError("day_fraction must lie in [0, 1]")
        if not 0.0 < self.max_runtime_fraction <= 1.0:
            raise ValueError("max_runtime_fraction must lie in (0, 1]")
        if not 0.0 < self.max_job_fraction <= 1.0:
            raise ValueError("max_job_fraction must lie in (0, 1]")
        if not 0.0 <= self.workday_start_hour < self.workday_end_hour <= 24.0:
            raise ValueError(
                "the workday must satisfy 0 <= workday_start_hour < workday_end_hour <= 24"
            )


@dataclass
class SyntheticTraceGenerator:
    """Generate a synthetic workload for one cluster.

    Parameters
    ----------
    params:
        The :class:`WorkloadParameters` describing the target workload.
    rng:
        NumPy random generator; pass a stream from
        :class:`repro.sim.rng.RandomStreams` for reproducibility.

    A generator alone is a replica group of one.  :func:`group_replicas`
    joins generators whose parameters differ only in ``resource_name`` into
    one group, whose traces are sampled together (see :meth:`generate`).
    """

    params: WorkloadParameters
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    # The replica group this generator samples with, and its row there; a
    # generator alone samples its own trace at each call.
    _group: Optional["_ReplicaGroup"] = field(default=None, init=False, repr=False, compare=False)
    _row: int = field(default=0, init=False, repr=False, compare=False)

    def generate(self, thin: int = 1) -> List[Job]:
        """Generate the synthetic job list, sorted by submission time.

        Only every ``thin``-th job of the full trace is constructed.  The
        random draws (the offered-load rescale sums over all jobs) and the
        job-id range still cover all ``num_jobs`` jobs, so each kept job is
        identical, id included, to its copy in the unthinned trace.

        A generator alone samples its trace here.  In a replica group
        (:func:`group_replicas`) the first call among a pass of members
        samples all of their traces, each from the member's own stream, in
        one set of array passes (:func:`_sample_rows`); each member's call,
        that one included, then builds the member's jobs from its own row,
        taking their ids at that call.  A member generates once per sampling
        of its pass, at the pass's ``thin``.
        """
        if thin < 1:
            raise ValueError(f"thin must be at least 1, got {thin}")
        p = self.params
        if self._group is None:
            columns, row = _sample_rows(p, [self.rng], thin), 0
        else:
            columns, row = self._group.take(self._row, thin)
        submit_times, processors, length_mi, comm_data_gb, user_ids = (
            column[row].tolist() for column in columns
        )
        first = job_counter_state()
        advance_job_counter(p.num_jobs)
        origin = p.resource_name
        none = QoSStrategy.NONE
        # Positional: origin, user_id, submit_time, num_processors,
        # length_mi, comm_data_gb, budget, deadline, strategy, job_id.
        return [
            Job(origin, user, submit, procs, length, comm, None, None, none, job_id)
            for job_id, submit, procs, length, comm, user in zip(
                range(first, first + p.num_jobs, thin),
                submit_times,
                processors,
                length_mi,
                comm_data_gb,
                user_ids,
            )
        ]


def group_replicas(generators: Sequence[SyntheticTraceGenerator]) -> None:
    """Join the generators whose parameters differ only in ``resource_name``
    into replica groups, each sampled in shared array passes.

    Each member keeps its own stream and draws from it what it would alone,
    so every member's jobs are bit-identical to a lone generator's.  The
    streams must be distinct: one stream shared by two members would be
    drawn from in group order rather than in call order.
    """
    groups: Dict[str, List[SyntheticTraceGenerator]] = {}
    for generator in generators:
        groups.setdefault(_replica_key(generator.params), []).append(generator)
    for members in groups.values():
        if len(members) > 1:
            group = _ReplicaGroup(members[0].params, [m.rng for m in members])
            for row, member in enumerate(members):
                member._group = group
                member._row = row


def _replica_key(params: WorkloadParameters) -> str:
    """Every parameter but ``resource_name``: equal keys make replicas.

    The ``repr`` tells ``1`` from ``1.0`` and ``0.0`` from ``-0.0``, which
    compare equal but give other bits.
    """
    return repr(tuple(value for name, value in vars(params).items() if name != "resource_name"))


#: Elements per ``(rows, num_jobs)`` array of one sampling pass (16 KiB);
#: see :class:`_ReplicaGroup`.
_PASS_ELEMENTS = 2_000


class _ReplicaGroup:
    """The members of one replica group and their sampled, untaken rows.

    The members are sampled in passes of as many rows as keep each array of
    a pass within :data:`_PASS_ELEMENTS` (at least one row), each pass at
    the call of the first of its members to generate, and a pass is dropped
    once all its members took their rows.  Small passes keep the memory
    peak near where per-resource generation had it: each pass's arrays go
    back to the heap's free lists for the next pass and the jobs built in
    between.  On ``fed-1024`` whole groups of 128, sampled at once and held
    until their last member, raised ``peak_rss_mb`` by about 7 MB; passes
    of one row to 8,000 elements read 0.1-0.35 MB above per-resource
    generation, and 2,000 keeps nearly all the speed of larger passes.
    """

    def __init__(self, params: WorkloadParameters, rngs: List[np.random.Generator]):
        self.params = params
        self.rngs = rngs
        self._rows = max(1, _PASS_ELEMENTS // params.num_jobs)
        #: pass index -> (thin, its thinned columns, its untaken rows)
        self._passes: Dict[int, Tuple[int, Tuple[np.ndarray, ...], Set[int]]] = {}

    def take(self, row: int, thin: int) -> Tuple[Tuple[np.ndarray, ...], int]:
        """The thinned columns of member ``row``'s pass and its row there,
        sampling the pass if it waits on none."""
        index, offset = divmod(row, self._rows)
        entry = self._passes.get(index)
        if entry is None:
            rngs = self.rngs[index * self._rows : (index + 1) * self._rows]
            columns = _sample_rows(self.params, rngs, thin)
            entry = self._passes[index] = (thin, columns, set(range(len(rngs))))
        sampled_thin, columns, untaken = entry
        if thin != sampled_thin:
            raise ValueError(f"replica rows sampled at thin={sampled_thin}, not {thin}")
        if offset not in untaken:
            raise RuntimeError("a replica generates once per sampling of its group")
        untaken.remove(offset)
        if not untaken:
            del self._passes[index]
        return columns, offset


def _sample_rows(
    p: WorkloadParameters, rngs: Sequence[np.random.Generator], thin: int
) -> Tuple[np.ndarray, ...]:
    """Sample the traces of replicas with parameters ``p``, one row per stream.

    Returns the kept jobs' submit times, processor counts, lengths (MI),
    communication volumes (Gb) and user ids, each ``(len(rngs), kept)``.

    Every replica makes its ten draws from its own stream in the order a
    lone resource always made them, into its row.  The rest runs once for
    all rows on whole arrays.  Each row comes out bit for bit as the 1-D code
    computed it: elementwise operations round each element alone, and
    ``sort`` and ``sum`` along the contiguous last axis treat each row as
    the 1-D call treats its array.  The water-filling rescale keeps a 1-D
    sum per row over the uncapped jobs, because a segmented sum
    (``np.add.reduceat``) gives other last bits on many segments.
    """
    m, n = len(rngs), p.num_jobs
    seconds_per_day = 86_400.0
    n_days = max(math.ceil(p.horizon / seconds_per_day), 1)
    largest_job = max(p.max_processors * p.max_job_fraction, 2.0)
    max_power = max(math.floor(math.log2(largest_job)), 1)
    daytime = np.empty((m, n))
    day_index = np.empty((m, n), dtype=np.int64)
    day_offsets = np.empty((m, n))
    night_offsets = np.empty((m, n))
    serial = np.empty((m, n))
    powers = np.empty((m, n), dtype=np.int64)
    odd = np.empty((m, n))
    jitter = np.empty((m, n), dtype=np.int64)
    raw = np.empty((m, n))
    user_ids = np.empty((m, n), dtype=np.int64)
    for row, rng in enumerate(rngs):
        rng.random(out=daytime[row])
        day_index[row] = rng.integers(0, n_days, size=n)
        rng.random(out=day_offsets[row])
        rng.random(out=night_offsets[row])
        rng.random(out=serial[row])
        powers[row] = rng.integers(1, max_power + 1, size=n)
        rng.random(out=odd[row])
        jitter[row] = rng.integers(1, 4, size=n)
        raw[row] = rng.lognormal(mean=p.mean_log_runtime, sigma=p.sigma_log_runtime, size=n)
        user_ids[row] = rng.integers(0, p.num_users, size=n)

    # Arrivals: a day/night cycle over the horizon.  Every term is
    # non-negative, so only the horizon clip can bind.
    day_window = (p.workday_end_hour - p.workday_start_hour) * 3600.0
    day_offsets = p.workday_start_hour * 3600.0 + day_offsets * day_window
    night_offsets *= seconds_per_day
    submit_times = day_index * seconds_per_day + np.where(
        daytime < p.day_fraction, day_offsets, night_offsets
    )
    np.minimum(submit_times, p.horizon - 1e-6, out=submit_times)
    submit_times.sort(axis=1)

    # Processors: power-of-two dominated, the exponent drawn uniformly from
    # 1 .. log2(max_job_fraction * cluster size), so larger clusters see
    # proportionally larger jobs; a fraction of jobs is serial and about a
    # tenth of the rest is nudged off the power of two.
    counts = np.left_shift(1, powers)
    counts -= jitter * (odd < 0.1)
    np.maximum(counts, 1, out=counts)
    counts[serial < p.serial_fraction] = 1
    processors = np.minimum(counts, p.max_processors)

    # Runtimes: lognormal, capped at max_runtime_fraction of the horizon (an
    # uncapped tail would put the offered load in a few multi-day jobs that
    # spill past the window), then rescaled to the offered load.
    cap = p.max_runtime_fraction * p.horizon
    np.minimum(raw, cap, out=raw)
    target = p.offered_load * p.max_processors * p.horizon
    scale = target / (raw * processors).sum(axis=1)
    runtimes = np.minimum(raw * scale[:, None], cap)
    # Water-filling: jobs at the cap absorb no more load, so the deficit is
    # spread over the uncapped jobs until the target is met, or nothing is
    # left uncapped.  A row's scale exceeds 1, so its jobs at the cap stay
    # there; a row that is done keeps scale 1, which leaves it as it is.
    for _ in range(8):
        node_seconds = runtimes * processors
        free = runtimes < cap
        scales = [1.0] * m
        filling = False
        for k, current in enumerate(node_seconds.sum(axis=1).tolist()):
            if not current >= target * 0.999:
                free_node_seconds = float(np.add.reduce(node_seconds[k][free[k]]))
                if free_node_seconds > 0:
                    scales[k] = 1.0 + (target - current) / free_node_seconds
                    filling = True
        if not filling:
            break
        runtimes *= np.array(scales)[:, None]
        np.minimum(runtimes, cap, out=runtimes)
    # A minimum runtime of one second, so no job degenerates.
    np.maximum(runtimes, 1.0, out=runtimes)

    # Only the kept jobs' products are taken: each is elementwise, so a kept
    # job's values do not depend on the others.  Keep the factor order:
    # reordering the products moves last bits, and with them every digest.
    # The kept columns are copied out, so the full arrays are freed now
    # rather than when the pass's last member has generated.
    runtimes = runtimes[:, ::thin]
    processors = processors[:, ::thin].copy()
    length_mi = (1.0 - p.comm_fraction) * runtimes * p.mips * processors
    comm_data_gb = p.comm_fraction * runtimes * p.bandwidth_gbps
    return (
        submit_times[:, ::thin].copy(),
        processors,
        length_mi,
        comm_data_gb,
        user_ids[:, ::thin].copy(),
    )


def merge_workloads(per_resource_jobs: Sequence[Sequence[Job]]) -> List[Job]:
    """Merge several per-resource job lists into one list sorted by submit time."""
    merged: List[Job] = [job for jobs in per_resource_jobs for job in jobs]
    merged.sort(key=lambda j: (j.submit_time, j.job_id))
    return merged
