"""Cluster substrate: resource specifications and the space-shared LRMS.

A *cluster* in the paper is a homogeneous collection of machines with a single
system image, managed by a local resource management system (LRMS) such as PBS
or SGE.  This package provides that substrate:

* :class:`~repro.cluster.specs.ResourceSpec` — the advertised resource set
  ``R_i = (p_i, mu_i, gamma_i)`` plus the owner's access price ``c_i``;
* :mod:`repro.cluster.specs` — the paper's cost/time model (Eqs. 1–4);
* :class:`~repro.cluster.profile.AvailabilityProfile` — processor availability
  over time, used for completion-time estimation and backfilling;
* :class:`~repro.cluster.lrms.SpaceSharedLRMS` — FCFS / EASY-backfilling
  space-shared scheduler with admission-control estimates.  It keeps the
  cluster's free processors as one count (the paper names no individual
  node) and raises :class:`~repro.cluster.lrms.AllocationError` for a start
  that would over-allocate them.
"""

from repro.cluster.specs import (
    ResourceSpec,
    communication_time,
    compute_time,
    execution_cost,
    execution_time,
    transfer_volume_gb,
)
from repro.cluster.profile import AvailabilityProfile, ProfileError
from repro.cluster.lrms import AllocationError, SpaceSharedLRMS, SchedulingPolicy

__all__ = [
    "ResourceSpec",
    "compute_time",
    "communication_time",
    "execution_time",
    "execution_cost",
    "transfer_volume_gb",
    "AllocationError",
    "AvailabilityProfile",
    "ProfileError",
    "SpaceSharedLRMS",
    "SchedulingPolicy",
]
