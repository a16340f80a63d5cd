"""Event accounting on the crash path, pinned exactly.

A crash (``SpaceSharedLRMS.fail_all``) must cancel the finish event of
every job it kills.  A finish left in the heap instead would fire later as a
no-op: it would add to ``events_processed`` and keep ``Simulator.pending``
above zero, which stretches the dynamic-pricing ticker.  No golden digest
covers ``events_processed``, and the CLI's fault runs cancel only a handful
of finish events each, so these two 128-cluster runs pin the count, the full
fingerprint and an empty heap at the end, with ``==``.
"""

from __future__ import annotations

import pytest

from repro.core.federation import Federation
from repro.scenario import Scenario, result_fingerprint, run_scenario
from repro.sim.engine import Simulator

#: faults key → (events fired, fingerprint, finish events cancelled by crashes).
CRASH_PINS = {
    "crash-recover": (
        20_836,
        "ab877e2316d2bebbf83b7261e6570cc622a2de3296719707ebd041862dbb86a3",
        142,
    ),
    "chaos": (
        21_267,
        "a12ad62c90ec4f3c76d377b28bb9a2488ff8c51e4c0cda4cd36fcfd5ef4ce1a8",
        76,
    ),
}


@pytest.mark.parametrize("faults", sorted(CRASH_PINS))
def test_crashes_cancel_their_finish_events(faults, monkeypatch):
    events, fingerprint, cancelled = CRASH_PINS[faults]
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
    result = run_scenario(
        Scenario(mode="federation", system_size=128, thin=4, faults=faults, seed=42)
    )
    assert result.events_processed == events
    assert result_fingerprint(result) == fingerprint
    assert len(cancels) == cancelled
    assert heap_at_collect == [(0, 0)]
