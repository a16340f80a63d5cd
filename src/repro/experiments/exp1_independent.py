"""Experiment 1 — independent resources (no federation).

Every cluster schedules only its own local workload; a job is accepted iff the
LRMS can complete it within its deadline, otherwise it is rejected outright.
This is the control experiment that Table 2 reports and that Fig. 2 compares
the federated runs against.

``experiment_1_scenario(...)`` builds the declarative description and
:func:`repro.scenario.run_scenario` executes it.
"""

from __future__ import annotations

from repro.cluster.lrms import SchedulingPolicy
from repro.core.policies import SharingMode
from repro.scenario import Scenario


def experiment_1_scenario(
    seed: int = 42,
    thin: int = 1,
    lrms_policy: SchedulingPolicy = SchedulingPolicy.FCFS,
) -> Scenario:
    """The independent-resource scenario (Table 2)."""
    return Scenario(
        mode=SharingMode.INDEPENDENT,
        seed=seed,
        thin=thin,
        lrms_policy=lrms_policy,
    )

