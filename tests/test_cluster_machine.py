"""Tests for the NodePool allocation layer.

``NodePool`` keeps the free nodes as sorted, disjoint runs and each job's
allocation as the tuple of runs it took.  The oracle is the pool it
replaced, kept here as :class:`SortedListPool`: one integer per free node in
a sorted list, which every release extends and re-sorts.  Both must hand out
the same nodes, hold the same free set and raise the same errors after every
operation of a random mix.
"""

from __future__ import annotations

import pickle
from typing import Dict, FrozenSet, List, Set, Tuple

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.cluster.machine import AllocationError, NodePool

class SortedListPool:
    """The per-node pool ``NodePool`` replaced, unchanged: the reference."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise AllocationError(f"capacity must be at least 1, got {capacity}")
        self._capacity = capacity
        self._free: List[int] = list(range(capacity))
        self._allocations: Dict[int, FrozenSet[int]] = {}

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def busy_count(self) -> int:
        return self._capacity - len(self._free)

    def allocation_of(self, job_id: int) -> FrozenSet[int]:
        return self._allocations.get(job_id, frozenset())

    def allocated_jobs(self) -> Set[int]:
        return set(self._allocations)

    def allocate(self, job_id: int, count: int) -> FrozenSet[int]:
        if count < 1:
            raise AllocationError(f"must allocate at least one node, got {count}")
        if job_id in self._allocations:
            raise AllocationError(f"job {job_id} already holds an allocation")
        if count > len(self._free):
            raise AllocationError(
                f"job {job_id} requested {count} nodes but only {len(self._free)} are free"
            )
        nodes = frozenset(self._free[:count])
        del self._free[:count]
        self._allocations[job_id] = nodes
        return nodes

    def release(self, job_id: int) -> FrozenSet[int]:
        try:
            nodes = self._allocations.pop(job_id)
        except KeyError:
            raise AllocationError(f"job {job_id} holds no allocation") from None
        self._free.extend(nodes)
        self._free.sort()
        return nodes


def nodes_of(runs) -> FrozenSet[int]:
    """The node ids a tuple of half-open runs covers."""
    return frozenset(node for start, end in runs for node in range(start, end))


class TestNodePool:
    def test_initial_state(self):
        pool = NodePool(16)
        assert pool.capacity == 16
        assert pool.free_count == 16
        assert pool.busy_count == 0
        assert pool.utilisation == 0.0

    def test_allocate_and_release(self):
        pool = NodePool(8)
        runs = pool.allocate(job_id=1, count=3)
        nodes = pool.allocation_of(1)
        assert len(nodes) == 3
        assert pool.free_count == 5
        assert nodes_of(runs) == nodes
        released = pool.release(1)
        assert nodes_of(released) == nodes
        assert pool.free_count == 8
        assert pool.allocation_of(1) == frozenset()

    def test_allocations_are_disjoint(self):
        pool = NodePool(10)
        pool.allocate(1, 4)
        pool.allocate(2, 4)
        a, b = pool.allocation_of(1), pool.allocation_of(2)
        assert a.isdisjoint(b)
        assert pool.allocated_jobs() == {1, 2}

    def test_over_allocation_rejected(self):
        pool = NodePool(4)
        pool.allocate(1, 3)
        with pytest.raises(AllocationError):
            pool.allocate(2, 2)

    def test_double_allocation_rejected(self):
        pool = NodePool(8)
        pool.allocate(1, 2)
        with pytest.raises(AllocationError):
            pool.allocate(1, 2)

    def test_release_unknown_job_rejected(self):
        pool = NodePool(8)
        with pytest.raises(AllocationError):
            pool.release(99)

    def test_zero_count_rejected(self):
        pool = NodePool(8)
        with pytest.raises(AllocationError):
            pool.allocate(1, 0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(AllocationError):
            NodePool(0)

    def test_released_nodes_are_reused(self):
        pool = NodePool(4)
        first = pool.allocate(1, 4)
        pool.release(1)
        second = pool.allocate(2, 4)
        assert first == second

    def test_utilisation_fraction(self):
        pool = NodePool(10)
        pool.allocate(1, 5)
        assert pool.utilisation == pytest.approx(0.5)

    def test_allocation_spans_the_lowest_runs(self):
        """A request larger than the lowest free run takes it whole and
        splits the next one."""
        pool = NodePool(10)
        for job_id in range(5):
            pool.allocate(job_id, 2)
        pool.release(1)
        pool.release(3)
        assert pool.free_runs() == ((2, 4), (6, 8))
        assert pool.allocate(9, 3) == ((2, 4), (6, 7))
        assert pool.allocation_of(9) == frozenset({2, 3, 6})
        assert pool.free_runs() == ((7, 8),)

    def test_fragmented_pool_survives_pickling(self):
        pool, ref = NodePool(40), SortedListPool(40)
        for job_id, count in enumerate((3, 5, 2, 7, 1, 4, 6)):
            pool.allocate(job_id, count)
            ref.allocate(job_id, count)
        for job_id in (1, 3, 5):
            pool.release(job_id)
            ref.release(job_id)
        assert len(pool.free_runs()) == 4
        clone = pickle.loads(pickle.dumps(pool))
        assert clone.free_runs() == pool.free_runs()
        assert clone.free_count == pool.free_count
        assert clone.allocated_jobs() == pool.allocated_jobs()
        for job_id in range(7):
            assert clone.allocation_of(job_id) == pool.allocation_of(job_id)
        # The clone keeps allocating like the pool it was copied from.
        for job_id, count in ((10, 6), (11, 9), (12, 2)):
            clone.allocate(job_id, count)
            ref.allocate(job_id, count)
            assert clone.allocation_of(job_id) == ref.allocation_of(job_id)
        for job_id in (0, 11, 2):
            clone.release(job_id)
            ref.release(job_id)
        assert nodes_of(clone.free_runs()) == frozenset(ref._free)


class TestNodePoolProperties:
    @given(
        capacity=st.integers(min_value=1, max_value=64),
        requests=st.lists(st.integers(min_value=1, max_value=16), max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_never_over_allocates(self, capacity, requests):
        """Whatever the request sequence, busy + free == capacity and no node
        is ever allocated to two jobs at once."""
        pool = NodePool(capacity)
        held: dict[int, frozenset] = {}
        for job_id, count in enumerate(requests):
            try:
                pool.allocate(job_id, count)
            except AllocationError:
                continue
            held[job_id] = pool.allocation_of(job_id)
            assert pool.busy_count + pool.free_count == capacity
        # All held sets are pairwise disjoint.
        all_nodes = [n for nodes in held.values() for n in nodes]
        assert len(all_nodes) == len(set(all_nodes))
        assert len(all_nodes) == pool.busy_count
        # Releasing everything restores the initial state.
        for job_id in held:
            pool.release(job_id)
        assert pool.free_count == capacity


# --------------------------------------------------------------------------- #
# Differential test against the sorted-list pool
# --------------------------------------------------------------------------- #
#: Job ids the random mixes draw from: few enough that double allocations
#: and releases of jobs holding nothing come up often.
JOB_IDS = range(12)


def _outcome(call):
    """``("ok", value)`` or ``("error", message)`` of an ``AllocationError``."""
    try:
        return "ok", call()
    except AllocationError as exc:
        return "error", str(exc)


def _release_cases(runs, free_before: Set[int]) -> List[str]:
    """How each released run lands, judged on the reference's free nodes.

    Two runs of one allocation never touch (a busy node separated them when
    they were taken), so each run's neighbours are decided by the free set
    before the release alone.
    """
    cases = []
    for start, end in runs:
        left, right = start - 1 in free_before, end in free_before
        cases.append(
            "merge-both" if left and right
            else "merge-left" if left
            else "merge-right" if right
            else "insert-alone"
        )
    return cases


def _assert_agree(pool: NodePool, ref: SortedListPool) -> None:
    free_runs = pool.free_runs()
    assert nodes_of(free_runs) == frozenset(ref._free)
    # Sorted, non-empty and never touching: adjacent runs are merged.
    for (start, end), (next_start, _next_end) in zip(free_runs, free_runs[1:]):
        assert start < end < next_start
    assert all(start < end for start, end in free_runs)
    assert pool.free_count == ref.free_count
    assert pool.busy_count == ref.busy_count
    assert pool.allocated_jobs() == ref.allocated_jobs()
    for job_id in JOB_IDS:
        assert pool.allocation_of(job_id) == ref.allocation_of(job_id)


def check_against_reference(capacity: int, ops: List[Tuple]) -> List[str]:
    """Apply ``ops`` to both pools, comparing them after every one.

    Returns the release case of every run released, in order.
    """
    pool, ref = NodePool(capacity), SortedListPool(capacity)
    reached: List[str] = []
    for op in ops:
        if op[0] == "allocate":
            _, job_id, count = op
            got = _outcome(lambda: pool.allocate(job_id, count))
            want = _outcome(lambda: ref.allocate(job_id, count))
        else:
            _, job_id = op
            free_before = set(ref._free)
            got = _outcome(lambda: pool.release(job_id))
            want = _outcome(lambda: ref.release(job_id))
            if got[0] == "ok":
                reached.extend(_release_cases(got[1], free_before))
        assert got[0] == want[0], (op, got, want)
        if got[0] == "ok":
            assert nodes_of(got[1]) == want[1], op
        else:
            assert got[1] == want[1], op
        _assert_agree(pool, ref)
    return reached


@st.composite
def pool_sequences(draw):
    """A capacity and 20-60 operations: mostly small allocates and
    releases, plus allocates of any count up to just past the capacity."""
    capacity = draw(st.integers(min_value=1, max_value=300))
    jobs = st.sampled_from(JOB_IDS)
    ops = st.one_of(
        st.tuples(st.just("allocate"), jobs, st.integers(1, max(1, capacity // 8))),
        st.tuples(st.just("allocate"), jobs, st.integers(0, capacity + 2)),
        st.tuples(st.just("release"), jobs),
    )
    return capacity, draw(st.lists(ops, min_size=20, max_size=60))


#: One fixed mix that reaches every release case, so the random test always
#: covers all four whatever hypothesis draws.
EVERY_RELEASE_CASE = (
    10,
    [("allocate", j, 2) for j in range(4)]
    + [("release", 1), ("release", 2), ("release", 0), ("release", 3)],
)


class TestAgainstSortedListPool:
    def test_fixed_mix_reaches_every_release_case(self):
        reached = check_against_reference(*EVERY_RELEASE_CASE)
        assert reached == ["insert-alone", "merge-left", "merge-right", "merge-both"]

    @given(sequence=pool_sequences())
    @example(sequence=EVERY_RELEASE_CASE)
    @settings(max_examples=100, deadline=None)
    def test_random_mix_matches_the_sorted_list_pool(self, sequence):
        """Random interleaved allocates and releases (over-allocation, double
        allocation and unknown releases included): the same nodes, the same
        free set and the same errors as the per-node pool after every
        operation."""
        for case in check_against_reference(*sequence):
            event(case)
