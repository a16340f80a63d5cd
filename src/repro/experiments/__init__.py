"""Experiment drivers reproducing the paper's evaluation (Section 3).

One module per experiment:

* :mod:`repro.experiments.exp1_independent` — independent resources (Table 2)
* :mod:`repro.experiments.exp2_federation`  — federation without economy (Table 3, Fig. 2)
* :mod:`repro.experiments.exp3_economy`     — federation with economy, population-profile sweep (Figs. 3–8)
* :mod:`repro.experiments.exp4_messages`    — message complexity per profile (Fig. 9)
* :mod:`repro.experiments.exp5_scalability` — message complexity vs system size (Figs. 10–11)

Every scenario builder and sweep accepts a ``thin`` parameter (keep every
``thin``-th job) so that benchmarks and examples can run reduced-scale versions
of the same code path; ``thin=1`` reproduces the full two-day workload used in
``EXPERIMENTS.md``, which ``scripts/generate_experiments_md.py`` writes (the
file is not checked in).
"""

from repro.experiments.common import (
    DEFAULT_PROFILES,
    default_specs,
    default_workload,
)
from repro.experiments.exp1_independent import experiment_1_scenario
from repro.experiments.exp2_federation import experiment_2_scenario
from repro.experiments.exp3_economy import (
    ProfileSweepResult,
    economy_profile_scenario,
    economy_sweep,
)
from repro.experiments.exp4_messages import message_complexity_rows
from repro.experiments.exp5_scalability import (
    ScalabilityPoint,
    scalability_sweep,
)

__all__ = [
    "DEFAULT_PROFILES",
    "default_specs",
    "default_workload",
    "experiment_1_scenario",
    "experiment_2_scenario",
    "economy_profile_scenario",
    "economy_sweep",
    "scalability_sweep",
    "ProfileSweepResult",
    "message_complexity_rows",
    "ScalabilityPoint",
]
