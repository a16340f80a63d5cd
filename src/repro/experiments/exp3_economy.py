"""Experiment 3 — federation with computational economy (DBC scheduling).

The paper sweeps eleven user-population profiles (0 %, 10 %, ..., 100 % of
users seeking optimise-for-time, the rest optimise-for-cost) and studies, for
each profile, the resource owners' incentives (Fig. 3), resource utilisation
(Fig. 4), job migration (Fig. 5), rejections (Fig. 6) and end-user QoS
satisfaction (Figs. 7 and 8).  Experiment 4 reuses the same sweep for message
complexity (Fig. 9).

The sweep rides on :class:`repro.scenario.SweepRunner`:
:func:`economy_sweep` expands the profiles into scenarios and executes them,
optionally across worker processes.  One profile alone is
``run_scenario(economy_profile_scenario(...))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.lrms import SchedulingPolicy
from repro.core.federation import FederationResult
from repro.core.policies import SharingMode
from repro.experiments.common import DEFAULT_PROFILES
from repro.scenario import Scenario, SweepRunner
from repro.workload.archive import ArchiveResource


@dataclass
class ProfileSweepResult:
    """Results of the population-profile sweep, keyed by OFT percentage."""

    results: Dict[int, FederationResult]

    def profiles(self) -> Tuple[int, ...]:
        """The swept OFT percentages, in ascending order."""
        return tuple(sorted(self.results))

    def __getitem__(self, oft_pct: int) -> FederationResult:
        return self.results[oft_pct]

    def __iter__(self):
        return iter(sorted(self.results.items()))

    def __len__(self) -> int:
        return len(self.results)


def economy_profile_scenario(
    oft_pct: int,
    seed: int = 42,
    thin: int = 1,
    lrms_policy: SchedulingPolicy = SchedulingPolicy.FCFS,
) -> Scenario:
    """The economy scenario for one user-population profile.

    Parameters
    ----------
    oft_pct:
        Percentage of users seeking optimise-for-time (0–100); the remaining
        users seek optimise-for-cost.
    """
    if not 0 <= oft_pct <= 100:
        raise ValueError(f"oft_pct must lie in [0, 100], got {oft_pct}")
    return Scenario(
        mode=SharingMode.ECONOMY,
        oft_fraction=oft_pct / 100.0,
        seed=seed,
        thin=thin,
        lrms_policy=lrms_policy,
    )


def economy_sweep(
    profiles: Sequence[int] = DEFAULT_PROFILES,
    seed: int = 42,
    resources: Optional[Sequence[ArchiveResource]] = None,
    thin: int = 1,
    lrms_policy: SchedulingPolicy = SchedulingPolicy.FCFS,
    workers: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> ProfileSweepResult:
    """Sweep the user-population profiles of Experiment 3.

    Parameters
    ----------
    workers:
        Worker processes for the sweep (``None`` or 1 = serial).  Parallel
        and serial execution produce identical results.
    runner:
        Optional pre-built :class:`SweepRunner`; pass one to reuse its
        memoisation cache across incremental sweeps.

    Returns a :class:`ProfileSweepResult` mapping each OFT percentage to its
    :class:`~repro.core.federation.FederationResult`; Experiments 3 and 4
    (and Figs. 3–9) are all read off this sweep.
    """
    runner = SweepRunner(workers=workers) if runner is None else runner
    scenarios = [
        economy_profile_scenario(
            int(oft_pct), seed=seed, thin=thin, lrms_policy=lrms_policy
        )
        for oft_pct in profiles
    ]
    sweep = runner.run(scenarios, resources=resources, workers=workers)
    results = {
        int(round(scenario.oft_fraction * 100)): result for scenario, result in sweep
    }
    return ProfileSweepResult(results=results)

