"""Core discrete-event simulation engine.

The :class:`Simulator` keeps scheduled callbacks in one binary heap
(``heapq`` over plain ``(time, priority, seq, callback, args)`` tuples)
ordered by (time, priority, sequence-number).  The sequence number guarantees
a stable, deterministic ordering for events scheduled at identical
timestamps, which is essential for reproducible experiments: two runs with
the same seeds produce bit-identical schedules.  This is a *contract*, not an
implementation detail: latency-bearing transports routinely land independent
messages on the same timestamp, and their delivery order must be schedule
order — never a heap insertion accident.  ``tests/test_delivery_order.py``
pins the guarantee (the tests fail against a seq-less heap, whose equal-key
pop order depends on push/pop history).  Because every seq is unique, a
tuple comparison never reaches the callback.

The engine is deliberately callback-based rather than coroutine-based: the
Grid-Federation entities (GFAs, LRMSes, user populations) are reactive state
machines, and callbacks keep the hot path free of generator overhead.

Four hot-path details worth knowing:

* **One loop** — :meth:`Simulator.step`, :meth:`Simulator.run` and
  :meth:`Simulator.run_window` all fire events through the same private
  loop, which fires while the next event lies inside an end bound.
* **Scheduled events are their sequence numbers** — every ``schedule*``
  call returns the event's ``seq``, and the simulator keeps the set of live
  (scheduled, not yet fired, drained or cancelled) seqs.
  :meth:`Simulator.cancel` takes a seq out of that set.  Nothing is
  allocated per event beyond its heap tuple.
* **One presorted feed** — a trace-driven workload knows every arrival
  time before the run starts, so :meth:`Simulator.feed` takes them all at
  once, validated in one pass, as a list the loop fires from in key order
  without pushing them on the heap.  Each feed event has the key
  ``(time, 0, seq)`` it would have had from :meth:`Simulator.schedule_at`
  at install time, and the loop takes the feed's head whenever that key
  sorts before the heap's head, so the delivery order is the same as if
  the feed had been scheduled.  :attr:`Simulator.pending` counts the live
  seqs plus the feed's remaining events.
* **Cancellation compaction** — a heap cannot delete from the middle, so a
  cancelled entry stays put until it surfaces, where the loop drops it; the
  heap is compacted in place once dead entries outnumber live ones, so
  churn-heavy runs keep its length proportional to the *live* event
  population instead of growing without bound.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from itertools import islice
from operator import le
from typing import Any, Callable, Iterator, List, NoReturn, Optional, Sequence, Set, Tuple

#: Dead heap entries tolerated before compaction (and the floor below which
#: compaction is never worth the rebuild).
_COMPACT_MIN_DEAD = 64

_INF = math.inf

#: A heap entry: ``(time, priority, seq, callback, args)``.
HeapEntry = Tuple[float, int, int, Callable[..., None], tuple]


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly.

    Examples: scheduling an event in the past, running a simulator that has
    already been stopped, or cancelling an event that is not pending.
    """


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (defaults to ``0.0``).
    trace:
        Optional callable invoked as ``trace(time, label)`` every time an
        event fires; useful for debugging small scenarios.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
    """

    def __init__(
        self,
        start_time: float = 0.0,
        trace: Optional[Callable[[float, str], None]] = None,
    ):
        if not math.isfinite(start_time):
            raise SimulationError("start_time must be finite")
        self._now: float = float(start_time)
        self._heap: List[HeapEntry] = []
        self._live: Set[int] = set()  # seqs scheduled, not fired/drained/cancelled
        self._seq = 0  # the next sequence number to hand out
        # The feed, latest first so the head pops off the end: its times,
        # the item each passes to its callback, and one past the last seq.
        self._feed_times: List[float] = []
        self._feed_items: List[Any] = []
        self._feed_callback: Optional[Callable[[Any], None]] = None
        self._feed_end = 0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._trace = trace

    # ------------------------------------------------------------------ #
    # Clock and introspection
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still to fire: the live (scheduled, not
        cancelled) heap events plus the feed's remaining events.

        Two sizes, so reading it is ``O(1)`` — entities may poll it every
        event (dynamic pricing does).
        """
        return len(self._live) + len(self._feed_times)

    @property
    def queue_size(self) -> int:
        """Raw heap entries, *including* cancelled ones not yet dropped
        (the feed never enters the heap, so this excludes it).

        The compaction guarantee keeps this within a constant factor of the
        live heap events (plus the compaction floor), bounded regardless of
        cancellation churn."""
        return len(self._heap)

    def __len__(self) -> int:
        return self.pending

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> int:
        """Schedule ``callback(*args)`` to fire ``delay`` time units from now.

        Parameters
        ----------
        delay:
            Non-negative offset from the current simulation time.
        callback:
            Callable invoked when the event fires.
        priority:
            Lower priorities fire first among events with equal timestamps.

        Returns
        -------
        int
            The event's sequence number, which :meth:`cancel` takes.
        """
        if delay < 0 or not math.isfinite(delay):
            raise SimulationError(f"delay must be finite and non-negative, got {delay!r}")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> int:
        """Schedule ``callback(*args)`` at an absolute simulation time; return
        the event's sequence number."""
        if not (self._now <= time < _INF and callable(callback)):
            self._reject(time, callback)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (float(time), priority, seq, callback, args))
        self._live.add(seq)
        return seq

    def schedule_at_many(
        self,
        items,
        *,
        priority: int = 0,
    ) -> List[int]:
        """Schedule a batch of ``(time, callback, args)`` triples in one call;
        return their sequence numbers.

        Sequence numbers are assigned in iteration order, so the delivery
        order is exactly what the equivalent :meth:`schedule_at` loop would
        produce; the batch form exists so burst paths (fault-plan load
        spikes, cross-shard window injection) pay one heapify instead of one
        sift per event when the burst is large next to the heap.
        """
        now = self._now
        first = seq = self._seq
        entries: List[HeapEntry] = []
        for time, callback, args in items:
            if not (now <= time < _INF and callable(callback)):
                self._reject(time, callback)
            entries.append((float(time), priority, seq, callback, tuple(args)))
            seq += 1
        self._seq = seq
        heap = self._heap
        # Below a quarter of the heap size, k sifts (O(k log n)) beat the
        # O(n + k) rebuild; above it, extend + heapify wins.
        if len(entries) * 4 < len(heap):
            for entry in entries:
                heappush(heap, entry)
        else:
            heap.extend(entries)
            heapify(heap)
        seqs = range(first, seq)
        self._live.update(seqs)
        return list(seqs)

    def feed(
        self,
        times: Sequence[float],
        callback: Callable[[Any], None],
        items: Sequence[Any],
    ) -> None:
        """Install a presorted feed: ``callback(items[i])`` fires at
        ``times[i]`` for every ``i``.

        The feed's events take the next ``len(times)`` sequence numbers in
        order and priority 0, so each fires under the ``(time, 0, seq)`` key
        the equivalent :meth:`schedule_at` loop would give it: among events
        of one instant, those scheduled before the feed fire first, those
        scheduled after it fire later.  The loop fires them from the feed
        itself, so none enters the heap or the live set, and none can be
        cancelled.

        Every time is checked once, here: the times must be finite,
        non-decreasing and not before :attr:`now`, ``callback`` callable,
        ``items`` as long as ``times``, and no earlier feed may still be
        pending.  A refused feed changes nothing.  Once its last event has
        fired (or been drained) the simulator holds no reference to the
        callback or the items.
        """
        if self._feed_times:
            raise SimulationError(
                f"a feed is already pending ({len(self._feed_times)} events left)"
            )
        if not callable(callback):
            raise SimulationError("callback must be callable")
        times = list(map(float, times))
        if len(items) != len(times):
            raise SimulationError(f"a feed of {len(times)} times got {len(items)} items")
        if not times:
            return
        if not (
            self._now <= times[0]
            and times[-1] < _INF
            and all(map(le, times, islice(times, 1, None)))
        ):
            self._reject_feed(times, callback)
        # Extended in place: a loop in progress keeps firing from the lists.
        self._feed_times.extend(reversed(times))
        self._feed_items.extend(reversed(items))
        self._feed_callback = callback
        self._seq += len(times)
        self._feed_end = self._seq

    def _reject_feed(self, times: List[float], callback: Callable[[Any], None]) -> NoReturn:
        """Raise the error that disqualifies a feed: its first time that is
        not finite, lies in the past or precedes the time before it."""
        previous = self._now
        for time in times:
            if not self._now <= time < _INF:
                self._reject(time, callback)
            if time < previous:
                raise SimulationError(
                    f"feed times must be non-decreasing ({time} follows {previous})"
                )
            previous = time
        raise AssertionError("unreachable: every feed time passed")  # pragma: no cover

    def _feed_first(self, time: float, priority: int, seq: int) -> bool:
        """Whether the feed's head, keyed ``(its time, 0, its seq)``, fires
        before the heap event keyed ``(time, priority, seq)``."""
        feed = self._feed_times
        return (feed[-1], 0, self._feed_end - len(feed)) < (time, priority, seq)

    def _reject(self, time: float, callback: Callable[..., None]) -> NoReturn:
        """Raise the error that disqualifies an event: a non-finite time, a
        time in the past or a callback that cannot be called."""
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past (now={self._now}, requested={time})"
            )
        raise SimulationError("callback must be callable")

    def cancel(self, seq: int) -> None:
        """Cancel the pending event scheduled under sequence number ``seq``.

        Only a pending event can be cancelled: a seq whose event already
        fired, was drained or cancelled, or that was never scheduled raises
        :class:`SimulationError` and changes nothing, which surfaces
        double-cancellation and stale-seq bugs early.

        The cancelled entry stays in the heap until it surfaces; once dead
        entries outnumber live ones the heap is compacted, so its length
        stays bounded under cancellation churn.
        """
        live = self._live
        try:
            live.remove(seq)
        except KeyError:
            raise SimulationError(
                f"event {seq!r} is not pending (fired, drained, cancelled or never scheduled)"
            ) from None
        dead = len(self._heap) - len(live)
        if dead > _COMPACT_MIN_DEAD and dead > len(live):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry from the heap, in place: a run in
        progress keeps firing from the same list."""
        live = self._live
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] in live]
        heapify(heap)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Fire the next pending event.

        Returns ``True`` if an event fired and ``False`` if the heap held no
        live event.
        """
        return self._fire(_INF, 1) == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or ``max_events`` fire.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after this
            time; the clock is advanced to ``until``.
        max_events:
            If given, stop after firing this many events (guards against
            accidental infinite event loops in tests).
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        if max_events is not None and max_events < 1:
            raise SimulationError(f"max_events must be positive, got {max_events}")
        self._drive(_INF if until is None else until, until, max_events)

    def run_window(self, end: float) -> int:
        """Fire every pending event strictly before ``end``, then land on it.

        This is the parallel engine's window step: :meth:`run`'s ``until`` is
        *inclusive* (events at exactly ``until`` fire), whereas a lookahead
        window owns ``[start, end)`` — events at exactly ``end`` belong to
        the next window.  After the step the clock sits on the boundary, so
        cross-shard deliveries scheduled *at* ``end`` remain legal.  Returns
        the number of events fired.
        """
        if not math.isfinite(end) or end < self._now:
            raise SimulationError(
                f"window end must be finite and >= now (now={self._now}, got {end!r})"
            )
        # The largest float below ``end`` turns the exclusive bound into the
        # loop's inclusive one.
        return self._drive(math.nextafter(end, -_INF), end, None)

    def _drive(self, bound: float, land: Optional[float], budget: Optional[int]) -> int:
        """Run :meth:`_fire` as a top-level run, then land the clock on ``land``.

        The clock lands unless :meth:`stop` was called or the event budget
        ran out; either leaves it on the last fired event.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        self._running = True
        self._stopped = False
        try:
            fired = self._fire(bound, budget)
        finally:
            self._running = False
        if land is not None and not self._stopped and fired != budget:
            self._now = max(self._now, land)
        return fired

    def _fire(self, bound: float, budget: Optional[int]) -> int:
        """The event loop: fire events while the next one's time is at most
        ``bound``, until ``budget`` events fired or :meth:`stop` is called.

        The next event is the heap's live head or the feed's head, whichever
        key sorts first.  Returns the number of events fired.  This loop
        carries whole federation runs, so it works on the heap and the feed
        directly.
        """
        heap = self._heap
        live = self._live
        feed = self._feed_times
        items = self._feed_items
        trace = self._trace
        fired = 0
        while True:
            if heap:
                time, priority, seq, callback, args = heap[0]
                if seq not in live:
                    heappop(heap)  # cancelled: dropped as it surfaces
                    continue
                from_heap = not feed or time < feed[-1] or (
                    time == feed[-1] and not self._feed_first(time, priority, seq)
                )
                if not from_heap:
                    time = feed[-1]
            elif feed:
                from_heap = False
                time = feed[-1]
            else:
                break
            if time > bound:
                break
            if from_heap:
                heappop(heap)
                live.remove(seq)
            else:
                del feed[-1]
                callback = self._feed_callback
                args = (items.pop(),)
                if not feed:
                    self._feed_callback = None  # spent: hold nothing of it
            if time < self._now:
                raise SimulationError(
                    f"event at {time} surfaced after the clock reached {self._now} "
                    "(heap delivered out of order)"
                )
            self._now = time
            self._events_processed += 1
            fired += 1
            if trace is not None:
                trace(time, getattr(callback, "__qualname__", repr(callback)))
            callback(*args)
            if fired == budget or self._stopped:
                break
        return fired

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None`` when drained.

        The parallel coordinator polls this at window barriers to skip empty
        windows (jumping the global clock to the window holding the earliest
        event anywhere in the federation).
        """
        heap = self._heap
        live = self._live
        while heap and heap[0][2] not in live:
            heappop(heap)
        feed = self._feed_times
        if feed and (not heap or feed[-1] < heap[0][0]):
            return feed[-1]
        return heap[0][0] if heap else None

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def drain(self) -> Iterator[HeapEntry]:
        """Pop and yield all remaining events without firing them.

        Each is yielded as a ``(time, priority, seq, callback, args)`` heap
        entry, in delivery order; a feed event is yielded as the entry it
        would have had on the heap.  Mainly useful for inspecting the
        end-of-run state in tests.
        """
        heap = self._heap
        live = self._live
        feed = self._feed_times
        while True:
            if heap and heap[0][2] not in live:
                heappop(heap)
                continue
            if feed and (not heap or self._feed_first(*heap[0][:3])):
                seq = self._feed_end - len(feed)
                callback = self._feed_callback
                entry = (feed.pop(), 0, seq, callback, (self._feed_items.pop(),))
                if not feed:
                    self._feed_callback = None
                yield entry
            elif heap:
                entry = heappop(heap)
                live.remove(entry[2])
                yield entry
            else:
                return

    # ------------------------------------------------------------------ #
    # Pickling (checkpoint/resume support)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Snapshot the simulator without its trace hook.

        The trace hook is a debugging callable that may not pickle (and a
        resumed run attaches its own), so it is dropped.  A simulator cannot
        be snapshotted mid-``run()``: the checkpoint driver only pickles
        between events, where ``_running`` is False.
        """
        if self._running:
            raise SimulationError("cannot pickle a simulator while it is running")
        state = self.__dict__.copy()
        state["_trace"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"Simulator(now={self._now:.3f}, pending={self.pending}, "
            f"fired={self._events_processed})"
        )
