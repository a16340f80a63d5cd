"""The DBC walk's queue-tail refusal against the full negotiation round.

A bare run (no fault plan, no resilience policy) refuses an enquiry from
the remote LRMS's FCFS queue tail when that alone puts the job past its
deadline, without asking the remote for an admission estimate.  A run with
``resilience="noop"`` installs an inert policy, which keeps every enquiry
on the full round: a round trip, an admission estimate and a decision.  So
a noop twin is the oracle for a bare run: both must agree in the result
fingerprint, in every ``TransportStats`` field (floats compared with
``==``), in the directory's query totals, in each job's rounds and
messages, in each GFA's statistics and admission counts, and in the
ledger's per-type counts.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.messages import MessageType
from repro.scenario import Scenario, result_fingerprint
from repro.scenario.runner import _build_federation

#: Compressed four-hour arrivals: most enquiries are refused and some
#: walks run out of candidates.
_BUSY = dict(workload="synthetic", horizon=4 * 3600.0, thin=4)

SHAPES = {
    "econ-8-uniform-oft30": dict(_BUSY, system_size=8, oft_fraction=0.3),
    "econ-8-wan-oft0": dict(_BUSY, system_size=8, oft_fraction=0.0, transport="two-tier-wan"),
    "econ-8-uniform-oft100": dict(_BUSY, system_size=8, oft_fraction=1.0),
    "econ-64-wan-oft100": dict(system_size=64, thin=16, oft_fraction=1.0, transport="two-tier-wan"),
    "econ-128-wan-oft30": dict(system_size=128, thin=32, oft_fraction=0.3, transport="two-tier-wan"),
    "econ-128-uniform-oft30": dict(system_size=128, thin=32, oft_fraction=0.3),
    "econ-8-demand": dict(
        workload="synthetic", horizon=8 * 3600.0, thin=2, system_size=8, oft_fraction=0.3,
        pricing="demand",
    ),
    "econ-64-wan-dynamic": dict(
        system_size=64, thin=16, oft_fraction=0.3, pricing="dynamic", transport="two-tier-wan"
    ),
    "econ-32-wan-coordinated": dict(
        _BUSY, thin=8, system_size=32, oft_fraction=0.3, agent="coordinated",
        transport="two-tier-wan",
    ),
    "econ-16-broadcast": dict(_BUSY, thin=8, system_size=16, oft_fraction=0.3, agent="broadcast"),
    "econ-64-wan-easy": dict(
        system_size=64, thin=16, oft_fraction=0.3, lrms_policy="easy", transport="two-tier-wan"
    ),
    "federation-8": dict(_BUSY, system_size=8, mode="federation"),
}


def _run(scenario: Scenario):
    """Run ``scenario`` serially; return its result and its federation."""
    federation = _build_federation(scenario, None, None, None, None, False)
    return federation.run(), federation


def _observed(scenario: Scenario) -> dict:
    result, federation = _run(scenario)
    directory = result.directory
    return {
        "fingerprint": result_fingerprint(result),
        "network": result.network,
        "queries": (directory.query_count, directory.assumed_query_messages),
        "jobs": [(job.job_id, job.negotiation_rounds, job.messages) for job in result.jobs],
        "gfa_stats": {
            name: dataclasses.asdict(gfa.stats) for name, gfa in federation.gfas.items()
        },
        "admission": {
            name: (gfa.admission.enquiries, gfa.admission.accepted, gfa.admission.refused)
            for name, gfa in federation.gfas.items()
        },
        "per_type": [result.message_log.count_by_type(mtype) for mtype in MessageType],
    }


@pytest.mark.parametrize("seed", [42, 43])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_bare_run_equals_its_noop_twin(shape, seed):
    fields = dict(SHAPES[shape])
    mode = fields.pop("mode", "economy")
    bare = Scenario(mode=mode, seed=seed, **fields)
    bare_seen = _observed(bare)
    noop_seen = _observed(bare.replace(resilience="noop"))
    assert sum(rounds for _id, rounds, _messages in bare_seen["jobs"]) > 0
    for key, value in bare_seen.items():
        assert noop_seen[key] == value, key
