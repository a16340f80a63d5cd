"""Event accounting on the crash path, pinned exactly.

A crash (``SpaceSharedLRMS.fail_all``) must cancel the finish event of
every job it kills.  A finish left in the heap instead would fire later as a
no-op: it would add to ``events_processed`` and keep ``Simulator.pending``
above zero, which stretches the dynamic-pricing ticker.  No golden digest
covers ``events_processed``, and the CLI's fault runs cancel only a handful
of finish events each, so these 128-cluster runs pin the count, the full
fingerprint and an empty heap at the end, with ``==``.  The EASY runs are
the only pinned ones that backfill under crashes, so they alone cover
``fail_all`` handing processors back to a backfilling LRMS.  Every run is
validated: each live cluster's free plus running processors must equal its
size after every fault, and every cluster must be wholly free at the end.
"""

from __future__ import annotations

import pytest

from repro.core.federation import Federation
from repro.scenario import Scenario, result_fingerprint, run_scenario
from repro.sim.engine import Simulator

#: (faults key, LRMS policy) → (events fired, fingerprint, finish events
#: cancelled by crashes).
CRASH_PINS = {
    ("crash-recover", "fcfs"): (
        20_836,
        "ab877e2316d2bebbf83b7261e6570cc622a2de3296719707ebd041862dbb86a3",
        142,
    ),
    ("crash-recover", "easy"): (
        20_836,
        "1f7cf38d1d7bcb56dbd84c7224ba3f41d0f61c2bca1911558ea38c01f8a4f5ff",
        143,
    ),
    ("chaos", "fcfs"): (
        21_267,
        "a12ad62c90ec4f3c76d377b28bb9a2488ff8c51e4c0cda4cd36fcfd5ef4ce1a8",
        76,
    ),
    ("chaos", "easy"): (
        21_265,
        "4b24b17f0784095f7174952fe87617d23baca4ed5d1174b3776aa0163a1186fe",
        76,
    ),
}


@pytest.mark.parametrize(
    "faults, policy", sorted(CRASH_PINS), ids=[f"{f}-{p}" for f, p in sorted(CRASH_PINS)]
)
def test_crashes_cancel_their_finish_events(faults, policy, monkeypatch):
    events, fingerprint, cancelled = CRASH_PINS[faults, policy]
    cancels = []
    heap_at_collect = []
    cancel = Simulator.cancel
    collect = Federation.collect

    def counting_cancel(self, *args):
        cancels.append(args)
        return cancel(self, *args)

    def recording_collect(self):
        heap_at_collect.append((self.sim.pending, self.sim.queue_size))
        return collect(self)

    monkeypatch.setattr(Simulator, "cancel", counting_cancel)
    monkeypatch.setattr(Federation, "collect", recording_collect)
    scenario = Scenario(
        mode="federation", system_size=128, thin=4, lrms_policy=policy, faults=faults, seed=42
    )
    result = run_scenario(scenario, validate=True)
    assert result.events_processed == events
    assert result_fingerprint(result) == fingerprint
    assert len(cancels) == cancelled
    assert heap_at_collect == [(0, 0)]
