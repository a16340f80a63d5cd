"""Local user populations.

Each cluster has a local population of users that submits the (trace-driven or
synthetic) workload to the cluster's GFA, keeping the submission path of the
paper's model (user → GFA → LRMS / federation) and giving a single place to
attach per-population bookkeeping.

Every submission time is known before the run starts, so
:func:`start_populations` hands all of them to the simulator at once as its
one presorted feed (:meth:`~repro.sim.engine.Simulator.feed`): no arrival
waits on the event heap.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, List, Sequence

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
        self._jobs: List[Job] = sorted(jobs, key=attrgetter("submit_time", "job_id"))
        self.submitted = 0
        self._started = False
        for job in self._jobs:
            if job.origin != gfa.name:
                raise ValueError(
                    f"job {job.job_id} originates at {job.origin!r}, cannot be "
                    f"submitted by the population of {gfa.name!r}"
                )

    # ------------------------------------------------------------------ #
    # Behaviour
    # ------------------------------------------------------------------ #
    def _submit(self) -> None:
        """Hand the next job to the GFA: the feed fires one call per job, in
        the population's job order."""
        index = self.submitted
        self.submitted = index + 1
        self.gfa.submit_local_job(self._jobs[index])

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


def start_populations(sim: Simulator, populations: Iterable[UserPopulation]) -> None:
    """Start ``populations``: queue every job's arrival on ``sim``'s feed.

    The jobs of all populations are merged into one list ordered by
    ``(submit_time, population order, job order)``, the order of the
    ``(time, 0, seq)`` keys that scheduling each population's jobs in turn
    would give them, and installed as the simulator's feed.  So the GFA
    takes each job at that key: among events of the job's instant, one
    scheduled before the populations started (a fault, the pricing ticker)
    runs first, and one scheduled after it (a job finish) runs once the GFA
    has the job.
    """
    populations = list(populations)
    for population in populations:
        if population._started:
            raise RuntimeError(f"{population.name}: population already started")
    times = [job.submit_time for population in populations for job in population._jobs]
    owners: List[UserPopulation] = []
    for population in populations:
        owners += [population] * len(population._jobs)
    # A stable sort of the population-ordered lists keeps ties in that order.
    order = sorted(range(len(times)), key=times.__getitem__)
    sim.feed([times[i] for i in order], UserPopulation._submit, [owners[i] for i in order])
    for population in populations:
        population._started = True
