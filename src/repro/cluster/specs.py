"""Resource specifications and the paper's cost/time model.

The federation directory stores, for every cluster ``i``, a resource
description ``R_i = (p_i, mu_i, gamma_i)`` — processor count, per-processor
speed in MIPS, and interconnect bandwidth — together with the owner's access
price ``c_i`` (Grid Dollars per unit of compute time).  Given ``R_i`` and
``c_i`` any GFA can compute the *unloaded* execution time and cost of a job on
that cluster (Eqs. 2–4), which is exactly what the directory-ranked candidate
selection of the DBC algorithm uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.workload.job import Job


@dataclass(frozen=True)
class ResourceSpec:
    """Static description of a cluster resource.

    Attributes
    ----------
    name:
        Unique resource / cluster name (e.g. ``"CTC SP2"``).
    num_processors:
        Number of processors ``p_i``.
    mips:
        Per-processor speed ``mu_i`` in millions of instructions per second.
    bandwidth_gbps:
        NIC-to-network bandwidth ``gamma_i`` in gigabits per second.
    price:
        Access price ``c_i`` in Grid Dollars per unit of compute time.
    """

    name: str
    num_processors: int
    mips: float
    bandwidth_gbps: float
    price: float

    def __post_init__(self) -> None:
        if self.num_processors < 1:
            raise ValueError(f"{self.name}: need at least one processor")
        if self.mips <= 0:
            raise ValueError(f"{self.name}: MIPS rating must be positive")
        if self.bandwidth_gbps <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")
        if self.price < 0:
            raise ValueError(f"{self.name}: price must be non-negative")

    def can_run(self, job: "Job") -> bool:
        """True if the cluster has enough processors for the job."""
        return job.num_processors <= self.num_processors

    # Convenience wrappers around the module-level model functions ------- #
    def compute_time(self, job: "Job") -> float:
        """Pure computation time of ``job`` on this resource."""
        return compute_time(job, self)

    def execution_time(self, job: "Job") -> float:
        """Unloaded execution time (compute + communication), Eq. 2–3."""
        return execution_time(job, self)

    def execution_cost(self, job: "Job") -> float:
        """Cost in Grid Dollars of executing ``job`` here, Eq. 4."""
        return execution_cost(job, self)


# --------------------------------------------------------------------------- #
# Model functions (Eqs. 1-4 of the paper)
# --------------------------------------------------------------------------- #
def transfer_volume_gb(alpha: float, origin_bandwidth_gbps: float) -> float:
    """Total data transfer ``Gamma = alpha * gamma_k`` (Eq. 1).

    ``alpha`` is the communication-overhead parameter of the job expressed in
    seconds of communication *on the originating cluster*; multiplying by the
    origin bandwidth converts it into a data volume that scales with the
    executing cluster's bandwidth.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if origin_bandwidth_gbps <= 0:
        raise ValueError("origin bandwidth must be positive")
    return alpha * origin_bandwidth_gbps


def _infeasible(job: "Job", spec: ResourceSpec) -> ValueError:
    return ValueError(
        f"job {job.job_id} needs {job.num_processors} processors but "
        f"{spec.name} only has {spec.num_processors}"
    )


def compute_time(job: "Job", spec: ResourceSpec) -> float:
    """Computation part of Eq. 2: ``l / (mu_m * p)``.

    Raises
    ------
    ValueError
        If the resource does not have enough processors for the job
        (the paper's model is only defined for feasible placements).
    """
    if job.num_processors > spec.num_processors:
        raise _infeasible(job, spec)
    return job.length_mi / (spec.mips * job.num_processors)


def communication_time(job: "Job", spec: ResourceSpec) -> float:
    """Communication part of Eq. 2: ``Gamma / gamma_m``."""
    return job.comm_data_gb / spec.bandwidth_gbps


def execution_time(job: "Job", spec: ResourceSpec) -> float:
    """Total unloaded execution time ``D(J, R_m)`` (Eqs. 2–3): compute plus
    communication time, in one call; raises as :func:`compute_time` does."""
    if job.num_processors > spec.num_processors:
        raise _infeasible(job, spec)
    return job.length_mi / (spec.mips * job.num_processors) + job.comm_data_gb / spec.bandwidth_gbps


def execution_cost(job: "Job", spec: ResourceSpec) -> float:
    """Execution cost ``B(J, R_m) = c_m * l / (mu_m * p)`` (Eq. 4): the
    price times :func:`compute_time`, in one call; raises as it does."""
    if job.num_processors > spec.num_processors:
        raise _infeasible(job, spec)
    return spec.price * (job.length_mi / (spec.mips * job.num_processors))


def feasible_execution_time(job: "Job", spec: ResourceSpec) -> float:
    """Like :func:`execution_time` but returns ``inf`` for infeasible placements.

    Convenient for ranking resources without special-casing small clusters.
    """
    if not spec.can_run(job):
        return math.inf
    return execution_time(job, spec)


def feasible_execution_cost(job: "Job", spec: ResourceSpec) -> float:
    """Like :func:`execution_cost` but returns ``inf`` for infeasible placements."""
    if not spec.can_run(job):
        return math.inf
    return execution_cost(job, spec)
