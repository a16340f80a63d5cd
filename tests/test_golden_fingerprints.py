"""Golden-fingerprint regression tests for the five experiment shapes.

Each digest below was produced by :func:`repro.scenario.result_fingerprint`
on a reduced-scale but *active* version of the corresponding experiment (the
compressed synthetic horizon over-subscribes the clusters, so the federation
shapes actually migrate, negotiate and settle payments).  Any refactor that
silently changes a job placement, a message count, a price or a utilisation
figure flips the digest and fails here.

One more digest, outside the five, pins the Experiment-3 shape under EASY
backfilling (:data:`EASY_SCENARIO`): no other golden or benchmark digest
runs a federation under ``lrms_policy="easy"``.

If a change is *meant* to alter results, regenerate the constants with::

    PYTHONPATH=src python -c "
    from tests.test_golden_fingerprints import GOLDEN_SCENARIOS, EASY_SCENARIO
    from repro.scenario import run_scenario, result_fingerprint
    for name, scenario in {**GOLDEN_SCENARIOS, 'easy': EASY_SCENARIO}.items():
        print(name, result_fingerprint(run_scenario(scenario)))"

and say why in the commit message.
"""

from __future__ import annotations

import pytest

from repro.cluster import SpaceSharedLRMS
from repro.scenario import Scenario, result_fingerprint, run_scenario

#: Compressed submission window: ~2x over-subscription of the Table 1 trace.
_HORIZON = 6 * 3600.0

#: Reduced-scale stand-ins for Experiments 1-5 (all jobs still flow through
#: the same code paths as the full-scale tables and figures).
GOLDEN_SCENARIOS = {
    "exp1_independent": Scenario(
        mode="independent", workload="synthetic", horizon=_HORIZON, thin=10, seed=42
    ),
    "exp2_federation": Scenario(
        mode="federation", workload="synthetic", horizon=_HORIZON, thin=10, seed=42
    ),
    "exp3_economy": Scenario(
        mode="economy", oft_fraction=0.3, workload="synthetic", horizon=_HORIZON, thin=10, seed=42
    ),
    "exp4_messages": Scenario(
        mode="economy", oft_fraction=0.7, workload="synthetic", horizon=_HORIZON, thin=10, seed=42
    ),
    "exp5_scalability": Scenario(
        mode="economy",
        oft_fraction=0.3,
        workload="synthetic",
        horizon=_HORIZON,
        system_size=12,
        thin=12,
        seed=42,
    ),
}

#: Pinned digests (see module docstring for the regeneration recipe).
GOLDEN_FINGERPRINTS = {
    "exp1_independent": "1ab30c78def5c05633c9c5857fef7d08dba29b5e5704626d04b65a8973081fc0",
    "exp2_federation": "f0e4bd1a661406a278bc8c9075616538f975587672ec8ab0d2bcd1a3b6e02862",
    "exp3_economy": "1a0829b50110862653dadb9cca4e29185e465459e1e94836a35ea28c12460ac8",
    "exp4_messages": "f2737f95264cebccf064f7ea0bfa375393297293f1b2cc04edcc8300f7023221",
    "exp5_scalability": "4cd88db08e12be831b27b541c68cba755509521ea4712544075b87ffe53d070e",
}


#: The Experiment-3 shape with every LRMS under EASY backfilling.
EASY_SCENARIO = GOLDEN_SCENARIOS["exp3_economy"].replace(lrms_policy="easy")

EASY_FINGERPRINT = "50a133f4d8209711dabee23fbaa6fd5c643750d357031f57516227c6e1a2ce75"


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_golden_fingerprint(name):
    result = run_scenario(GOLDEN_SCENARIOS[name])
    assert result_fingerprint(result) == GOLDEN_FINGERPRINTS[name], (
        f"{name} drifted from its golden fingerprint — a code change altered "
        "simulation results; if intended, regenerate the constants (see "
        "module docstring)"
    )


def test_goldens_are_distinct():
    """The five shapes must not collapse onto each other (that would mean a
    shape is too sparse to exercise its experiment's distinguishing path)."""
    assert len(set(GOLDEN_FINGERPRINTS.values())) == len(GOLDEN_FINGERPRINTS)


def test_golden_shapes_are_active():
    """The federation shapes really migrate jobs and exchange messages."""
    result = run_scenario(GOLDEN_SCENARIOS["exp2_federation"])
    assert sum(1 for job in result.jobs if job.was_migrated) > 0
    assert result.message_log.total_messages > 0


def test_easy_backfill_golden_fingerprint(monkeypatch):
    """The EASY shape is pinned, and it really backfills: some job starts
    while a job queued ahead of it on the same cluster still waits."""
    backfills = []
    dispatch = SpaceSharedLRMS._dispatch_easy

    def counting_dispatch(lrms):
        before = list(lrms._queue)
        dispatch(lrms)
        waiting = {id(job) for job in lrms._queue}
        ahead = False
        for job in before:
            if id(job) in waiting:
                ahead = True
            elif ahead:
                backfills.append(job)

    monkeypatch.setattr(SpaceSharedLRMS, "_dispatch_easy", counting_dispatch)
    result = run_scenario(EASY_SCENARIO)
    assert result_fingerprint(result) == EASY_FINGERPRINT
    assert backfills


def test_easy_backfill_builds_no_profile_per_dispatch(monkeypatch):
    """EASY's shadow time comes from one pass over the running jobs'
    releases: the only profiles the EASY shape builds are the admission
    estimates' rebuilds (a per-dispatch profile made it 253)."""
    from repro.cluster.profile import AvailabilityProfile

    builds = []
    init = AvailabilityProfile.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AvailabilityProfile, "__init__", counting_init)
    result = run_scenario(EASY_SCENARIO)
    assert result_fingerprint(result) == EASY_FINGERPRINT
    assert len(builds) == 12
