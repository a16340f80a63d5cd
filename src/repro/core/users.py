"""Local user populations.

Each cluster has a local population of users that submits the (trace-driven or
synthetic) workload to the cluster's GFA.  Modelling the population as its own
simulation entity keeps the submission path identical to the paper's model
(user → GFA → LRMS / federation) and gives a single place to attach
per-population bookkeeping.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.sim.engine import Simulator
from repro.sim.entity import Entity, EntityRegistry
from repro.sim.events import Event, EventType
from repro.workload.job import Job


class UserPopulation(Entity):
    """The user community local to one cluster.

    Parameters
    ----------
    sim, registry:
        Simulation engine and shared entity registry.
    gfa_name:
        Name of the GFA that receives this population's jobs.
    jobs:
        The population's workload; each job is submitted at its
        ``submit_time`` once :meth:`start` has been called.
    """

    def __init__(
        self,
        sim: Simulator,
        registry: EntityRegistry,
        gfa_name: str,
        jobs: Sequence[Job],
    ):
        super().__init__(sim, f"users@{gfa_name}", registry)
        self.gfa_name = gfa_name
        self._jobs: List[Job] = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        self.submitted = 0
        self._started = False
        #: Sequence number reserved for the first job's arrival (set by start).
        self._first_seq = 0
        for job in self._jobs:
            if job.origin != gfa_name:
                raise ValueError(
                    f"job {job.job_id} originates at {job.origin!r}, cannot be "
                    f"submitted by the population of {gfa_name!r}"
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
        self._schedule_next()

    def _schedule_next(self) -> None:
        index = self.submitted
        if index < len(self._jobs):
            self.sim.schedule_reserved(
                self._first_seq + index, self._jobs[index].submit_time, self._submit
            )

    def _submit(self) -> None:
        job = self._jobs[self.submitted]
        self.submitted += 1
        self._schedule_next()
        self.send(self.gfa_name, EventType.JOB_SUBMIT, payload=job)

    def handle_event(self, event: Event) -> None:
        # User populations only emit events; nothing addresses them directly.
        raise ValueError(f"{self.name}: unexpected event {event.etype}")

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
        return f"UserPopulation({self.gfa_name!r}, jobs={len(self._jobs)})"


def populations_from_workload(
    sim: Simulator,
    registry: EntityRegistry,
    workload: Iterable[tuple[str, Sequence[Job]]],
) -> List[UserPopulation]:
    """Create one :class:`UserPopulation` per (gfa name, job list) pair."""
    return [UserPopulation(sim, registry, name, jobs) for name, jobs in workload]
