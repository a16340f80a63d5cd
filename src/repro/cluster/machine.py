"""Machine / node-pool model.

The paper defines a cluster as a collection of homogeneous machines with a
single system image.  The LRMS in :mod:`repro.cluster.lrms` only needs a count
of free processors, but allocating *specific* node identifiers makes the
substrate more faithful (and lets tests assert that no node is ever
double-booked).  :class:`NodePool` provides that allocation layer.

The pool stores nodes as *runs*: half-open ``(start, end)`` ranges of
consecutive node ids.  The free nodes are sorted, disjoint runs that never
touch (two adjacent runs are merged into one), and each job's allocation is
the tuple of runs it took.  A cluster of 2,048 processors therefore costs a
handful of integers instead of one per node, and a job finish merges its runs
back in place instead of re-sorting a per-node list.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, FrozenSet, List, Set, Tuple

#: A half-open range ``(start, end)`` of consecutive node ids.
Run = Tuple[int, int]


class AllocationError(RuntimeError):
    """Raised when nodes are over-allocated or released incorrectly."""


class NodePool:
    """Tracks which nodes of a homogeneous cluster are allocated to which job.

    Parameters
    ----------
    capacity:
        Total number of nodes (processors) in the cluster.

    Notes
    -----
    Node identifiers are integers ``0 .. capacity-1``.  Allocation hands out
    the lowest-numbered free nodes, which keeps behaviour deterministic.
    :meth:`allocate` and :meth:`release` return the job's runs;
    :meth:`allocation_of` expands them into node ids on demand.
    """

    __slots__ = ("_capacity", "_free_count", "_starts", "_ends", "_allocations")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise AllocationError(f"capacity must be at least 1, got {capacity}")
        self._capacity = capacity
        self._free_count = capacity
        # The free runs, as two parallel sorted lists: run i is
        # [_starts[i], _ends[i]).
        self._starts: List[int] = [0]
        self._ends: List[int] = [capacity]
        self._allocations: Dict[int, Tuple[Run, ...]] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        """Total number of nodes."""
        return self._capacity

    @property
    def free_count(self) -> int:
        """Number of currently unallocated nodes."""
        return self._free_count

    @property
    def busy_count(self) -> int:
        """Number of currently allocated nodes."""
        return self._capacity - self._free_count

    @property
    def utilisation(self) -> float:
        """Instantaneous fraction of nodes allocated."""
        return self.busy_count / self._capacity

    def allocation_of(self, job_id: int) -> FrozenSet[int]:
        """Return the nodes currently held by ``job_id`` (empty set if none)."""
        runs = self._allocations.get(job_id, ())
        return frozenset(node for start, end in runs for node in range(start, end))

    def allocated_jobs(self) -> Set[int]:
        """Return the set of job ids currently holding nodes."""
        return set(self._allocations)

    def free_runs(self) -> Tuple[Run, ...]:
        """Return the free nodes as sorted, disjoint ``(start, end)`` runs."""
        return tuple(zip(self._starts, self._ends))

    # ------------------------------------------------------------------ #
    # Allocation / release
    # ------------------------------------------------------------------ #
    def allocate(self, job_id: int, count: int) -> Tuple[Run, ...]:
        """Allocate the ``count`` lowest-numbered free nodes to ``job_id``.

        Returns the runs taken, lowest first.

        Raises
        ------
        AllocationError
            If there are not enough free nodes, the count is invalid, or the
            job already holds an allocation.
        """
        if count < 1:
            raise AllocationError(f"must allocate at least one node, got {count}")
        if job_id in self._allocations:
            raise AllocationError(f"job {job_id} already holds an allocation")
        if count > self._free_count:
            raise AllocationError(
                f"job {job_id} requested {count} nodes but only {self._free_count} are free"
            )
        self._free_count -= count
        starts, ends = self._starts, self._ends
        runs: List[Run] = []
        while count and ends[0] - starts[0] <= count:
            # The lowest free run is taken whole...
            start, end = starts.pop(0), ends.pop(0)
            runs.append((start, end))
            count -= end - start
        if count:
            # ...and the rest from the front of the next one.
            start = starts[0]
            starts[0] = start + count
            runs.append((start, start + count))
        allocation = self._allocations[job_id] = tuple(runs)
        return allocation

    def release(self, job_id: int) -> Tuple[Run, ...]:
        """Release all nodes held by ``job_id`` and return its runs."""
        try:
            runs = self._allocations.pop(job_id)
        except KeyError:
            raise AllocationError(f"job {job_id} holds no allocation") from None
        starts, ends = self._starts, self._ends
        for start, end in runs:
            i = bisect_left(starts, start)
            joins_left = i > 0 and ends[i - 1] == start
            joins_right = i < len(starts) and starts[i] == end
            if joins_left and joins_right:
                ends[i - 1] = ends[i]
                del starts[i], ends[i]
            elif joins_left:
                ends[i - 1] = end
            elif joins_right:
                starts[i] = start
            else:
                starts.insert(i, start)
                ends.insert(i, end)
            self._free_count += end - start
        return runs

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"NodePool(capacity={self._capacity}, busy={self.busy_count})"
