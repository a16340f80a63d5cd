"""QoS fabrication: budgets, deadlines and user strategies.

The archive traces carry no QoS information, so — exactly as in Section 2.5 of
the paper — budgets and deadlines are fabricated relative to the *originating*
resource:

* budget   ``b = budget_factor   * B(J, R_origin)``  (Eq. 7, factor 2 in the paper)
* deadline ``d = deadline_factor * D(J, R_origin)``  (Eq. 8, factor 2 in the paper)

User strategies (OFT / OFC) are assigned per *user*, not per job, so that a
"population profile of 30 % OFT users" means 30 % of each cluster's local user
population optimises every one of its jobs for time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

from repro.cluster.specs import ResourceSpec, _infeasible
from repro.workload.job import Job, QoSStrategy


def assign_qos(
    jobs: Iterable[Job],
    specs: Mapping[str, ResourceSpec],
    budget_factor: float = 2.0,
    deadline_factor: float = 2.0,
) -> None:
    """Assign budgets and deadlines to ``jobs`` in place (Eqs. 7–8).

    Parameters
    ----------
    jobs:
        Jobs to annotate.
    specs:
        Mapping from resource name to :class:`ResourceSpec`; every job's
        ``origin`` must be present.
    budget_factor, deadline_factor:
        Multipliers applied to the unloaded cost / execution time on the
        originating resource (both 2.0 in the paper).

    Raises
    ------
    KeyError
        If a job's origin resource is not in ``specs``.
    ValueError
        If a factor is not positive, or a job needs more processors than
        its origin has.
    """
    if budget_factor <= 0 or deadline_factor <= 0:
        raise ValueError("budget and deadline factors must be positive")
    # One pass: Eqs. 2-4 inlined with :func:`execution_cost`'s and
    # :func:`execution_time`'s float expressions, so the bits are theirs; the
    # origin's spec is looked up again only when the origin changes.
    origin: object = object()  # equal to no job's origin
    for job in jobs:
        if job.origin != origin:
            origin = job.origin
            spec = specs[origin]
            price, mips, width, bandwidth = (
                spec.price, spec.mips, spec.num_processors, spec.bandwidth_gbps
            )
        processors = job.num_processors
        if processors > width:
            raise _infeasible(job, spec)
        compute = job.length_mi / (mips * processors)
        job.budget = budget_factor * (price * compute)
        job.deadline = deadline_factor * (compute + job.comm_data_gb / bandwidth)


def assign_strategies(
    jobs: Sequence[Job],
    oft_fraction: float,
    rng: np.random.Generator,
) -> Dict[str, QoSStrategy]:
    """Assign OFT / OFC strategies to users (and their jobs) in place.

    Parameters
    ----------
    jobs:
        All jobs of the experiment; the set of users is derived from the
        ``(origin, user_id)`` pairs found here.
    oft_fraction:
        Fraction of each resource's local users that optimise for time
        (e.g. ``0.3`` for the paper's 30 % OFT / 70 % OFC mix).  The remaining
        users optimise for cost.
    rng:
        Random generator used to pick *which* users are OFT seekers.

    Returns
    -------
    dict
        Mapping ``"origin/user_id" -> QoSStrategy`` describing the assignment.
    """
    if not 0.0 <= oft_fraction <= 1.0:
        raise ValueError(f"oft_fraction must be within [0, 1], got {oft_fraction}")

    users_by_origin: Dict[str, List[int]] = {}
    for job in jobs:
        users_by_origin.setdefault(job.origin, [])
        if job.user_id not in users_by_origin[job.origin]:
            users_by_origin[job.origin].append(job.user_id)

    assignment: Dict[str, QoSStrategy] = {}
    for origin in sorted(users_by_origin):
        users = sorted(users_by_origin[origin])
        n_oft = int(round(oft_fraction * len(users)))
        shuffled = list(users)
        rng.shuffle(shuffled)
        oft_users = set(shuffled[:n_oft])
        for user in users:
            strategy = QoSStrategy.OFT if user in oft_users else QoSStrategy.OFC
            assignment[f"{origin}/{user}"] = strategy

    for job in jobs:
        job.strategy = assignment[f"{job.origin}/{job.user_id}"]
    return assignment


def strategy_counts(jobs: Iterable[Job]) -> Dict[QoSStrategy, int]:
    """Count jobs per strategy (useful for sanity checks and reports)."""
    counts: Dict[QoSStrategy, int] = {s: 0 for s in QoSStrategy}
    for job in jobs:
        counts[job.strategy] += 1
    return counts
