"""Experiment 2 — federation without economy.

Jobs that cannot meet their deadline locally are offered to the other clusters
in decreasing order of computational speed; admission is negotiated with each
candidate in turn.  Table 3 and Fig. 2 report the outcome.

``experiment_2_scenario(...)`` builds the declarative description and
:func:`repro.scenario.run_scenario` executes it.
"""

from __future__ import annotations

from repro.cluster.lrms import SchedulingPolicy
from repro.core.policies import SharingMode
from repro.scenario import Scenario


def experiment_2_scenario(
    seed: int = 42,
    thin: int = 1,
    lrms_policy: SchedulingPolicy = SchedulingPolicy.FCFS,
) -> Scenario:
    """The federation-without-economy scenario (Table 3, Fig. 2)."""
    return Scenario(
        mode=SharingMode.FEDERATION,
        seed=seed,
        thin=thin,
        lrms_policy=lrms_policy,
    )

