"""Local user populations.

Each cluster has a local population of users that submits the (trace-driven or
synthetic) workload to the cluster's GFA, keeping the submission path of the
paper's model (user → GFA → LRMS / federation) and giving a single place to
attach per-population bookkeeping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.sim.engine import Simulator
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.gfa import GridFederationAgent


class UserPopulation:
    """The user community local to one cluster.

    Parameters
    ----------
    sim:
        Simulation engine.
    gfa:
        The GFA that receives this population's jobs (anything with a
        ``name`` and a ``submit_local_job(job)`` method).
    jobs:
        The population's workload; each job is submitted at its
        ``submit_time`` once :meth:`start` has been called.
    """

    def __init__(self, sim: Simulator, gfa: "GridFederationAgent", jobs: Sequence[Job]):
        self.sim = sim
        self.gfa = gfa
        self.name = f"users@{gfa.name}"
        self._jobs: List[Job] = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        self.submitted = 0
        self._started = False
        #: Sequence number reserved for the first job's arrival (set by start).
        self._first_seq = 0
        for job in self._jobs:
            if job.origin != gfa.name:
                raise ValueError(
                    f"job {job.job_id} originates at {job.origin!r}, cannot be "
                    f"submitted by the population of {gfa.name!r}"
                )

    # ------------------------------------------------------------------ #
    # Behaviour
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Reserve the arrivals' sequence numbers and queue the first one.

        Only one arrival is pending at a time: each one schedules the next
        job under the number reserved for it here, so every arrival keeps
        the ``(time, priority, seq)`` key that scheduling the whole workload
        up front would give it, while the event heap holds one arrival per
        population instead of the whole workload.
        """
        if self._started:
            raise RuntimeError(f"{self.name}: population already started")
        self._started = True
        self._first_seq = self.sim.reserve_seqs(len(self._jobs))
        if self._jobs:
            self.sim.schedule_reserved(self._first_seq, self._jobs[0].submit_time, self._submit)

    def _submit(self) -> None:
        jobs = self._jobs
        index = self.submitted
        self.submitted = index + 1
        if index + 1 < len(jobs):
            self.sim.schedule_reserved(
                self._first_seq + index + 1, jobs[index + 1].submit_time, self._submit
            )
        # The GFA takes the job at the arrival's own key, (time, 0, the seq
        # reserved by start()): an event due at this instant that was
        # scheduled before the population started (a fault, the pricing
        # ticker) has already run, and one scheduled after it (a job finish)
        # runs once the GFA has the job.
        self.gfa.submit_local_job(jobs[index])

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def jobs(self) -> List[Job]:
        """The population's workload (submit-time ordered)."""
        return list(self._jobs)

    @property
    def users(self) -> List[int]:
        """Distinct user identifiers appearing in the workload."""
        return sorted({job.user_id for job in self._jobs})

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"UserPopulation({self.gfa.name!r}, jobs={len(self._jobs)})"
