"""Processor-availability profile.

The LRMS must answer, for admission control and for backfilling, the question
*"if I accepted this job now, when would it finish?"*.  The standard data
structure for this is an availability profile: a step function of the number
of free processors over future time, obtained from the expected completion
times of running jobs and from reservations made for queued jobs.

:class:`AvailabilityProfile` stores the step function as two parallel lists —
breakpoint times and the number of free processors from that breakpoint until
the next one (the last entry extends to infinity).  Operations:

* :meth:`earliest_start` — earliest time at or after a lower bound at which
  ``procs`` processors are simultaneously free for ``duration`` seconds;
* :meth:`reserve` — subtract ``procs`` processors over an interval;
* :meth:`trim` — forget the profile before a time, so a profile kept alive
  across a whole run stays as short as the work still ahead of it;
* :meth:`until_released` — build, in one sorted pass, the profile of work
  that holds processors from the start until known end times (the running
  jobs), with those ends exact.

Queries and reservations are O(number of breakpoints).  The LRMS keeps one
profile per cluster alive while jobs wait and adds one reservation per job
it queues instead of rebuilding the profile for every admission estimate; a
job that starts at once on an idle enough cluster needs no profile at all.
Trimmed to the work ahead, a profile holds tens of breakpoints, where a scan
over two lists is cheap.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, List, Tuple


class ProfileError(RuntimeError):
    """Raised on invalid profile operations (over-reservation, bad arguments)."""


class AvailabilityProfile:
    """Step function of free processors over time.

    Parameters
    ----------
    capacity:
        Total number of processors of the cluster.
    start_time:
        Time from which the profile is defined (usually "now").
    """

    def __init__(self, capacity: int, start_time: float = 0.0):
        if capacity < 1:
            raise ProfileError(f"capacity must be positive, got {capacity}")
        if not math.isfinite(start_time):
            raise ProfileError("start_time must be finite")
        self._capacity = capacity
        self._times: List[float] = [float(start_time)]
        self._avail: List[int] = [capacity]

    @classmethod
    def until_released(
        cls, capacity: int, start_time: float, holds: Iterable[Tuple[float, int]]
    ) -> "AvailabilityProfile":
        """Profile in which each ``(end, procs)`` hold keeps ``procs``
        processors busy over ``[start_time, end)``.

        The same step function as reserving each hold in turn, built in one
        sorted pass.  Each hold ends exactly at ``end`` (reserving a duration
        of ``end - start_time`` can end one ulp away from it), and a hold
        that has already ended (``end <= start_time``) reserves nothing.
        """
        profile = cls(capacity, start_time)
        start = profile._times[0]
        pending = sorted(hold for hold in holds if hold[0] > start)
        free = capacity - sum(procs for _end, procs in pending)
        if free < 0:
            raise ProfileError(f"holds of {capacity - free} processors exceed capacity {capacity}")
        times, avail = profile._times, profile._avail
        avail[0] = free
        for end, procs in pending:
            free += procs
            if times[-1] == end:
                avail[-1] = free
            else:
                times.append(end)
                avail.append(free)
        return profile

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        """Total processor count of the profile."""
        return self._capacity

    @property
    def start_time(self) -> float:
        """First time instant covered by the profile."""
        return self._times[0]

    def free_at(self, time: float) -> int:
        """Number of free processors at ``time``."""
        if time < self._times[0]:
            raise ProfileError(f"time {time} precedes profile start {self._times[0]}")
        idx = self._segment_index(time)
        return self._avail[idx]

    def segments(self) -> List[Tuple[float, float, int]]:
        """Return the profile as ``(start, end, free)`` tuples; last end is ``inf``."""
        out = []
        for i, (t, a) in enumerate(zip(self._times, self._avail)):
            end = self._times[i + 1] if i + 1 < len(self._times) else math.inf
            out.append((t, end, a))
        return out

    def min_free(self, start: float, end: float) -> int:
        """Minimum number of free processors over ``[start, end)``."""
        if end <= start:
            raise ProfileError("interval must have positive length")
        i = self._segment_index(start)
        lowest = self._avail[i]
        i += 1
        while i < len(self._times) and self._times[i] < end:
            lowest = min(lowest, self._avail[i])
            i += 1
        return lowest

    # ------------------------------------------------------------------ #
    # Queries and reservations
    # ------------------------------------------------------------------ #
    def earliest_start(self, procs: int, duration: float, earliest: float | None = None) -> float:
        """Earliest time >= ``earliest`` at which ``procs`` CPUs are free for ``duration``.

        Raises
        ------
        ProfileError
            If the request exceeds the cluster capacity (it can never be
            satisfied) or the arguments are invalid.
        """
        if procs < 1:
            raise ProfileError("must request at least one processor")
        if procs > self._capacity:
            raise ProfileError(
                f"request for {procs} processors exceeds capacity {self._capacity}"
            )
        if duration <= 0:
            raise ProfileError("duration must be positive")
        times, avail = self._times, self._avail
        start = times[0]
        if earliest is not None and earliest > start:
            start = earliest

        # Availability only changes at breakpoints, so the earliest feasible
        # start is either the lower bound itself or a breakpoint after it.
        # Sweep forward: whenever a segment inside the candidate window lacks
        # capacity, restart the window at the end of that blocking segment.
        n = len(times)
        idx = bisect.bisect_right(times, start) - 1
        while True:
            end = start + duration
            blocked_at = None
            j = idx
            while j < n and times[j] < end:
                if avail[j] < procs:
                    blocked_at = j
                    break
                j += 1
            if blocked_at is None:
                return start
            if blocked_at + 1 >= n:
                # The last segment extends to infinity; if it blocks, the
                # request exceeds what ever becomes free — impossible because
                # the final segment always has full capacity.
                raise ProfileError("internal error: no feasible start found")  # pragma: no cover
            idx = blocked_at + 1
            start = times[idx]

    def reserve(self, start: float, duration: float, procs: int) -> None:
        """Subtract ``procs`` processors over ``[start, start + duration)``.

        Raises
        ------
        ProfileError
            If the reservation would drive availability negative anywhere in
            the interval; the profile is then left unchanged.
        """
        if procs < 1:
            raise ProfileError("must reserve at least one processor")
        if duration <= 0:
            raise ProfileError("duration must be positive")
        times, avail = self._times, self._avail
        if start < times[0]:
            raise ProfileError(f"reservation start {start} precedes profile start")
        end = start + duration
        if end <= start:
            raise ProfileError("interval must have positive length")
        # One walk from the segment holding ``start`` to the first breakpoint
        # at or after ``end``, taking the minimum free count on the way, so
        # nothing changes before the capacity check has passed.
        first = bisect.bisect_right(times, start) - 1
        lowest = avail[first]
        stop = first + 1
        n = len(times)
        while stop < n and times[stop] < end:
            if avail[stop] < lowest:
                lowest = avail[stop]
            stop += 1
        if lowest < procs:
            raise ProfileError(
                f"cannot reserve {procs} processors over [{start}, {end}): insufficient capacity"
            )
        # Split at ``end``, then at ``start`` (which shifts ``end`` right),
        # and subtract over the segments in between.
        if stop == n or times[stop] != end:
            times.insert(stop, end)
            avail.insert(stop, avail[stop - 1])
        if times[first] != start:
            first += 1
            times.insert(first, start)
            avail.insert(first, avail[first - 1])
            stop += 1
        for i in range(first, stop):
            avail[i] -= procs

    def trim(self, time: float) -> None:
        """Drop the profile before ``time``, which becomes its start.

        Availability from ``time`` on is unchanged; a ``time`` at or before
        the current start is a no-op.
        """
        times = self._times
        if time <= times[0]:
            return
        idx = bisect.bisect_right(times, time) - 1
        if idx:
            del times[:idx]
            del self._avail[:idx]
        times[0] = time

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _segment_index(self, time: float) -> int:
        """Index of the segment containing ``time``."""
        return max(bisect.bisect_right(self._times, time) - 1, 0)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"AvailabilityProfile(capacity={self._capacity}, segments={len(self._times)})"
