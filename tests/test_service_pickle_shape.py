"""The pickled shape of snapshots and cached results, pinned to its version.

A checkpoint and a result-cache entry are whole-object-graph pickles, so a
field added to any pickled ``repro`` class changes the format even when no
format code changes: a build that reads an older file then fails late, with
an ``AttributeError`` in the middle of a resumed run, instead of refusing
the file up front.  These tests pickle a paused snapshot, a parallel shard
and a cached result through a ``Pickler`` whose ``persistent_id`` hook
records, for every non-enum ``repro`` object, its class and the names of the
state it pickles.  A digest of that map is pinned beside the version
constant it belongs to.

When a test here fails, the pickled shape changed: bump the version named in
the pin (``SNAPSHOT_FORMAT_VERSION`` and ``PAR_CHECKPOINT_VERSION`` in
``repro/service/snapshot.py``, ``CACHE_FORMAT_VERSION`` in
``repro/service/cache.py``) and re-pin the version with the new digest.
"""

from __future__ import annotations

import enum
import hashlib
import io
import json
import pickle
from typing import Dict, Set

import pytest

from repro.par.shard import build_shard_federation
from repro.scenario import Scenario, run_scenario
from repro.service.cache import CACHE_FORMAT_VERSION
from repro.service.checkpoint import CancelledRun, snapshot_path
from repro.service.snapshot import (
    PAR_CHECKPOINT_VERSION,
    SNAPSHOT_FORMAT_VERSION,
    load_snapshot,
)
from repro.workload.job import job_counter_state

#: (format version, digest of the pickled class → state-name map).
SNAPSHOT_SHAPE = (11, "3dca4d38be31d734")
PAR_SHAPE = (12, "cbf2bf9405fb0dfa")
CACHE_SHAPE = (6, "9e2cf0aaa82eaf23")

#: Scenarios whose graphs between them reach the fault injector, the
#: resilience manager, the WAN topology, the bank, dynamic pricing and the
#: coordinated agent.
_SCENARIOS = (
    Scenario(
        mode="economy",
        oft_fraction=0.3,
        system_size=32,
        thin=8,
        transport="two-tier-wan",
        faults="chaos",
        resilience="retry-breaker",
        seed=42,
    ),
    Scenario(agent="coordinated", mode="economy", pricing="demand", thin=20, seed=42),
)


class _ShapeRecorder(pickle.Pickler):
    """A pickler that maps each non-enum ``repro`` class it writes to the
    names of the state its instances pickle."""

    def __init__(self, file) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.shapes: Dict[str, Set[str]] = {}

    def persistent_id(self, obj):
        cls = type(obj)
        if cls.__module__.startswith("repro.") and not isinstance(obj, enum.Enum):
            names = self.shapes.setdefault(f"{cls.__module__}.{cls.__qualname__}", set())
            names.update(_state_names(obj))
        return None  # pickle it as usual


def _state_names(obj) -> Set[str]:
    reduced = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
    state = reduced[2] if isinstance(reduced, tuple) and len(reduced) > 2 else None
    if state is None:
        return set()
    # Classes with __slots__ pickle (dict state or None, slot state).
    parts = state if isinstance(state, tuple) else (state,)
    names: Set[str] = set()
    for part in parts:
        if isinstance(part, dict):
            names.update(part)
        elif part is not None:
            names.add(f"<{type(part).__name__}>")
    return names


def shape_digest(*objects) -> str:
    """Digest of the class → state-name map of everything ``objects`` pickle."""
    recorder = _ShapeRecorder(io.BytesIO())
    for obj in objects:
        recorder.dump(obj)
    shape = {name: sorted(names) for name, names in recorder.shapes.items()}
    blob = json.dumps(shape, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _assert_pinned(constant: str, version: int, digest: str, pin) -> None:
    assert (version, digest) == pin, (
        f"the pickled shape pinned to {constant} = {pin[0]} now digests to {digest}: "
        f"bump {constant} and re-pin it with the new digest"
    )


def _paused_snapshot(scenario: Scenario, directory) -> dict:
    """The payload of a serial run's checkpoint, cancelled at its tenth
    hourly boundary and loaded back."""
    boundaries = []

    def cancel(progress) -> None:
        if not progress.done:
            boundaries.append(progress.sim_time)
            if len(boundaries) == 10:
                raise CancelledRun("paused by test")

    with pytest.raises(CancelledRun):
        run_scenario(scenario, checkpoint_dir=directory, checkpoint_every=3600.0, on_progress=cancel)
    _header, federation, loaded = load_snapshot(snapshot_path(directory), restore_counters=False)
    return {"federation": federation, "scenario": loaded, "job_counter": 0}


def test_snapshot_shape_is_pinned_to_its_version(tmp_path):
    payloads = [
        _paused_snapshot(scenario, tmp_path / str(index))
        for index, scenario in enumerate(_SCENARIOS)
    ]
    _assert_pinned(
        "SNAPSHOT_FORMAT_VERSION", SNAPSHOT_FORMAT_VERSION, shape_digest(*payloads), SNAPSHOT_SHAPE
    )


def test_par_shard_shape_is_pinned_to_its_version():
    """A shard checkpoint is an ordinary snapshot of a shard federation,
    written at a barrier: here one of two shards stepped through ten hourly
    windows on its own (its cross-shard outbox is dropped)."""
    scenario = _SCENARIOS[0].replace(faults="none", resilience="paper")
    shard = build_shard_federation(scenario, 0, 2, 60.0)
    shard.start()
    for window in range(1, 11):
        shard.step(window * 3600.0, [], [])
    payload = {"federation": shard, "scenario": scenario, "job_counter": job_counter_state()}
    _assert_pinned("PAR_CHECKPOINT_VERSION", PAR_CHECKPOINT_VERSION, shape_digest(payload), PAR_SHAPE)


def test_cached_result_shape_is_pinned_to_its_version():
    results = [run_scenario(scenario) for scenario in _SCENARIOS]
    wrappers = [
        {"version": CACHE_FORMAT_VERSION, "key": "0" * 64, "result": result} for result in results
    ]
    _assert_pinned("CACHE_FORMAT_VERSION", CACHE_FORMAT_VERSION, shape_digest(*wrappers), CACHE_SHAPE)


@pytest.mark.parametrize("index", range(len(_SCENARIOS)), ids=["chaos-wan", "coordinated-demand"])
def test_a_cached_result_pickles_no_federation_member(index):
    """A result reaches the run's simulator through its directory's
    transport; once the run is over, the simulator's spent feed must hold
    nothing, or the pickle would carry the whole federation."""
    recorder = _ShapeRecorder(io.BytesIO())
    recorder.dump(run_scenario(_SCENARIOS[index]))
    members = {
        "repro.core.gfa.GridFederationAgent",
        "repro.cluster.lrms.SpaceSharedLRMS",
        "repro.core.users.UserPopulation",
    }
    assert "repro.sim.engine.Simulator" in recorder.shapes
    assert members.isdisjoint(recorder.shapes)


def test_the_recorder_sees_a_new_field():
    """The digest moves when one pickled object gains an attribute."""
    scenario = _SCENARIOS[0]
    result = run_scenario(scenario)
    before = shape_digest(result)
    result.directory.extra_field = 1
    assert shape_digest(result) != before
