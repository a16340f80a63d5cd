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
from typing import List, Sequence

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
    """

    params: WorkloadParameters
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def generate(self, thin: int = 1) -> List[Job]:
        """Generate the synthetic job list, sorted by submission time.

        Only every ``thin``-th job of the full trace is constructed.  The
        random draws (the offered-load rescale sums over all jobs) and the
        job-id range still cover all ``num_jobs`` jobs, so each kept job is
        identical, id included, to its copy in the unthinned trace.
        """
        if thin < 1:
            raise ValueError(f"thin must be at least 1, got {thin}")
        p = self.params
        submit_times = self._sample_arrival_times()  # already sorted
        processors = self._sample_processor_counts()
        runtimes = self._sample_runtimes(processors)
        user_ids = self.rng.integers(0, p.num_users, size=p.num_jobs)
        # Only the kept jobs' products are taken: each is elementwise, so a
        # kept job's values do not depend on the others.
        runtimes = runtimes[::thin]
        processors = processors[::thin]
        # Keep the factor order: reordering the products moves last bits,
        # and with them every result digest.
        length_mi = (1.0 - p.comm_fraction) * runtimes * p.mips * processors
        comm_data_gb = p.comm_fraction * runtimes * p.bandwidth_gbps

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
                submit_times[::thin].tolist(),
                processors.tolist(),
                length_mi.tolist(),
                comm_data_gb.tolist(),
                user_ids[::thin].tolist(),
            )
        ]

    # ------------------------------------------------------------------ #
    # Sampling helpers
    # ------------------------------------------------------------------ #
    def _sample_arrival_times(self) -> np.ndarray:
        """Arrival times with a day/night cycle over the horizon."""
        p = self.params
        seconds_per_day = 86_400.0
        n_days = max(math.ceil(p.horizon / seconds_per_day), 1)
        is_daytime = self.rng.random(p.num_jobs) < p.day_fraction
        day_index = self.rng.integers(0, n_days, size=p.num_jobs)

        day_window = (p.workday_end_hour - p.workday_start_hour) * 3600.0
        day_offsets = p.workday_start_hour * 3600.0 + self.rng.random(p.num_jobs) * day_window
        night_offsets = self.rng.random(p.num_jobs) * seconds_per_day

        offsets = np.where(is_daytime, day_offsets, night_offsets)
        times = day_index * seconds_per_day + offsets
        # Every term is non-negative, so only the upper bound can bind.
        np.minimum(times, p.horizon - 1e-6, out=times)
        times.sort()
        return times

    def _sample_processor_counts(self) -> np.ndarray:
        """Power-of-two dominated processor requests bounded by the cluster size.

        The exponent is drawn uniformly from ``1 .. log2(max_job_fraction *
        cluster size)`` so that larger clusters see proportionally larger jobs
        (as the archive traces of 1024–2048 node machines do) while single
        jobs never monopolise the machine; a configurable fraction of jobs is
        serial and a small fraction is perturbed off the power of two.
        """
        p = self.params
        largest_job = max(p.max_processors * p.max_job_fraction, 2.0)
        max_power = max(math.floor(math.log2(largest_job)), 1)
        serial = self.rng.random(p.num_jobs) < p.serial_fraction
        powers = self.rng.integers(1, max_power + 1, size=p.num_jobs)
        counts = 2 ** powers  # int64, like the powers
        counts[serial] = 1
        # A small fraction of non-power-of-two jobs, as seen in real logs.
        odd = self.rng.random(p.num_jobs) < 0.1
        jitter = self.rng.integers(1, 4, size=p.num_jobs)
        counts = np.where(odd & ~serial, np.maximum(counts - jitter, 1), counts)
        return np.minimum(counts, p.max_processors)

    def _sample_runtimes(self, processors: np.ndarray) -> np.ndarray:
        """Lognormal runtimes rescaled to hit the configured offered load.

        Runtimes are capped at ``max_runtime_fraction * horizon`` (15 % of the
        window by default, i.e. a bit over 7 hours for the two-day horizon):
        the paper's two-day windows contain minutes-to-hours jobs, and an
        uncapped lognormal tail would concentrate the offered load in a few
        multi-day jobs that silently spill past the measurement window instead
        of creating the queueing contention the evaluation studies.
        """
        p = self.params
        cap = p.max_runtime_fraction * p.horizon
        raw = self.rng.lognormal(mean=p.mean_log_runtime, sigma=p.sigma_log_runtime, size=p.num_jobs)
        raw = np.minimum(raw, cap)
        target_node_seconds = p.offered_load * p.max_processors * p.horizon
        raw_node_seconds = float(np.sum(raw * processors))
        runtimes = np.minimum(raw * (target_node_seconds / raw_node_seconds), cap)
        # Water-filling rescale: jobs clipped at the cap cannot absorb more
        # load, so the remaining deficit is redistributed over the un-capped
        # jobs until the target is met (or everything is capped).
        for _ in range(8):
            node_seconds = runtimes * processors
            current = float(np.sum(node_seconds))
            if current >= target_node_seconds * 0.999:
                break
            free = runtimes < cap
            free_node_seconds = float(np.sum(node_seconds[free]))
            if free_node_seconds <= 0:
                break
            deficit = target_node_seconds - current
            scale = 1.0 + deficit / free_node_seconds
            runtimes[free] = np.minimum(runtimes[free] * scale, cap)
        # Enforce a minimum runtime of one second so no job degenerates.
        return np.maximum(runtimes, 1.0)


def merge_workloads(per_resource_jobs: Sequence[Sequence[Job]]) -> List[Job]:
    """Merge several per-resource job lists into one list sorted by submit time."""
    merged: List[Job] = [job for jobs in per_resource_jobs for job in jobs]
    merged.sort(key=lambda j: (j.submit_time, j.job_id))
    return merged
