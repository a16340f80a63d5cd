"""Core discrete-event simulation engine.

The :class:`Simulator` keeps scheduled callbacks in one binary heap
(``heapq`` over bare ``(time, priority, seq, event)`` tuples) ordered by
(time, priority, sequence-number).  The sequence number guarantees a stable,
deterministic ordering for events scheduled at identical timestamps, which is
essential for reproducible experiments: two runs with the same seeds produce
bit-identical schedules.  This is a *contract*, not an implementation detail:
latency-bearing transports routinely land independent messages on the same
timestamp, and their delivery order must be schedule order — never a heap
insertion accident.  :mod:`repro.sim.entity` mirrors the sequence number on
``Event.seq`` so the order is observable at the message layer, and
``tests/test_delivery_order.py`` pins the guarantee (the tests fail against a
seq-less heap, whose equal-key pop order depends on push/pop history).

The engine is deliberately callback-based rather than coroutine-based: the
Grid-Federation entities (GFAs, LRMSes, user populations) are reactive state
machines, and callbacks keep the hot path free of generator overhead.  A thin
coroutine layer is provided separately in :mod:`repro.sim.process` for code
that reads more naturally as a process.

Three hot-path details worth knowing:

* **One loop** — :meth:`Simulator.step`, :meth:`Simulator.run` and
  :meth:`Simulator.run_window` all fire events through the same private
  loop, which pops while the heap head lies inside an end bound.
* **Handle pooling** — fired :class:`ScheduledEvent` handles that nobody else
  references (checked by refcount) are recycled into the next ``schedule``
  call instead of being reallocated; handles a caller retains are simply
  never pooled, so the optimisation is invisible.
* **Cancellation compaction** — a heap cannot delete from the middle, so a
  cancelled event stays put until it surfaces; the heap is compacted once
  dead entries outnumber live ones, so churn-heavy runs keep its length
  proportional to the *live* event population instead of growing without
  bound.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Iterator, List, Optional, Tuple

#: Fired handles kept for reuse; beyond this, handles are left to the GC.
_POOL_MAX = 512

#: Dead heap entries tolerated before compaction (and the floor below which
#: compaction is never worth the rebuild).
_COMPACT_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly.

    Examples: scheduling an event in the past, running a simulator that has
    already been stopped, or cancelling an event twice.
    """


class ScheduledEvent:
    """A handle to a scheduled callback.

    Events are ordered by ``(time, priority, seq)``; the heap stores bare
    tuples carrying those primitives so ordering comparisons never touch the
    event object (the unique ``seq`` guarantees it).  The handle is slotted
    and pooled: federations schedule one event per job arrival and per job
    completion, so allocation cost and footprint are on the hot path.

    Attributes
    ----------
    time:
        Absolute simulation time at which the callback fires.
    priority:
        Tie-breaker for events at the same timestamp; lower fires first.
    seq:
        Monotonically increasing sequence number (second tie-breaker).
    callback:
        The callable invoked when the event fires.
    args:
        Positional arguments passed to the callback.
    cancelled:
        True once :meth:`Simulator.cancel` has been called on this handle.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "_queued")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
        cancelled: bool = False,
    ):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        # True while the event sits unfired in the heap; the live pending
        # counter only moves for events in this state.
        self._queued = True

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"ScheduledEvent(time={self.time}, priority={self.priority}, "
            f"seq={self.seq}, cancelled={self.cancelled})"
        )


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
        self._heap: List[Tuple[float, int, int, ScheduledEvent]] = []
        self._seq = 0  # the next sequence number to hand out
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._pending = 0  # live (scheduled, not fired, not cancelled) events
        self._trace = trace
        self._pool: list[ScheduledEvent] = []

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
        """Number of live (non-cancelled) events still waiting in the heap.

        Maintained as a counter on schedule/cancel/fire, so reading it is
        ``O(1)`` — entities may poll it every event (dynamic pricing does).
        """
        return self._pending

    @property
    def queue_size(self) -> int:
        """Raw heap entries, *including* cancelled ones not yet dropped.

        The compaction guarantee keeps this within a constant factor of
        :attr:`pending` (plus the compaction floor), bounded regardless of
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
    ) -> ScheduledEvent:
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
        ScheduledEvent
            A handle that can be passed to :meth:`cancel`.
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
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        event = self._handle(time, priority, self._seq, callback, args)
        self._seq += 1
        heappush(self._heap, (event.time, priority, event.seq, event))
        self._pending += 1
        return event

    def reserve_seqs(self, count: int) -> int:
        """Reserve ``count`` consecutive sequence numbers; return the first.

        A caller that will schedule a chain of events — a user population's
        arrivals — reserves their numbers where it would otherwise have
        scheduled them all at once, then schedules each link with
        :meth:`schedule_reserved` when the previous one fires.  Every event
        keeps the ``(time, priority, seq)`` key it would have had, so the
        delivery order is unchanged while only one link is pending.
        """
        if count < 0:
            raise SimulationError(f"cannot reserve a negative count ({count})")
        first = self._seq
        self._seq = first + count
        return first

    def schedule_reserved(
        self,
        seq: int,
        time: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at ``time`` under a reserved ``seq``.

        ``seq`` must come from :meth:`reserve_seqs`, and each reserved number
        may be used once; the event has the default priority 0.  The sequence
        counter does not move, so the next ordinary ``schedule`` draws the
        number it would have drawn anyway.
        """
        if not 0 <= seq < self._seq:
            raise SimulationError(f"sequence number {seq} was never reserved")
        event = self._handle(time, 0, seq, callback, args)
        heappush(self._heap, (event.time, 0, seq, event))
        self._pending += 1
        return event

    def schedule_at_many(
        self,
        items,
        *,
        priority: int = 0,
    ) -> list[ScheduledEvent]:
        """Schedule a batch of ``(time, callback, args)`` triples in one call.

        Sequence numbers are assigned in iteration order, so the delivery
        order is exactly what the equivalent :meth:`schedule_at` loop would
        produce; the batch form exists so burst paths (fault-plan load
        spikes, cross-shard window injection) pay one heapify instead of one
        sift per event when the burst is large next to the heap.
        """
        handles: list[ScheduledEvent] = []
        for time, callback, args in items:
            handles.append(self._handle(time, priority, self._seq, callback, tuple(args)))
            self._seq += 1
        heap = self._heap
        entries = [(event.time, priority, event.seq, event) for event in handles]
        # Below a quarter of the heap size, k sifts (O(k log n)) beat the
        # O(n + k) rebuild; above it, extend + heapify wins.
        if len(entries) * 4 < len(heap):
            for entry in entries:
                heappush(heap, entry)
        else:
            heap.extend(entries)
            heapify(heap)
        self._pending += len(handles)
        return handles

    def _handle(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
    ) -> ScheduledEvent:
        """Validate one event and return its (pooled, when possible) handle."""
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past (now={self._now}, requested={time})"
            )
        if not callable(callback):
            raise SimulationError("callback must be callable")
        pool = self._pool
        if not pool:
            return ScheduledEvent(float(time), priority, seq, callback, args)
        event = pool.pop()
        event.time = float(time)
        event.priority = priority
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event._queued = True
        return event

    def cancel(self, event: ScheduledEvent) -> None:
        """Cancel a previously scheduled event.

        Cancelling the same handle twice raises :class:`SimulationError` to
        surface double-cancellation bugs early.  Cancelling an event that has
        already fired (or been drained) is a harmless no-op on the pending
        count, as it always was.

        The cancelled entry stays in the heap until it surfaces; once dead
        entries outnumber live ones the heap is compacted, so its length
        stays bounded under cancellation churn.
        """
        if event.cancelled:
            raise SimulationError("event already cancelled")
        event.cancelled = True
        if event._queued:
            self._pending -= 1
            dead = len(self._heap) - self._pending
            if dead > _COMPACT_MIN_DEAD and dead > self._pending:
                self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry from the heap."""
        live = []
        for entry in self._heap:
            if entry[3].cancelled:
                entry[3]._queued = False
            else:
                live.append(entry)
        heapify(live)
        self._heap = live

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Fire the next pending event.

        Returns ``True`` if an event fired and ``False`` if the heap held no
        live event.
        """
        return self._fire(math.inf, 1) == 1

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
        self._drive(math.inf if until is None else until, until, max_events)

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
        return self._drive(math.nextafter(end, -math.inf), end, None)

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
        """The event loop: fire events while the live head's time is at most
        ``bound``, until ``budget`` events fired or :meth:`stop` is called.

        Returns the number of events fired.  This loop carries whole
        federation runs, so it works on the heap directly.
        """
        heap = self._heap
        pool = self._pool
        trace = self._trace
        fired = 0
        while heap:
            time, _, _, event = heap[0]
            if event.cancelled:
                heappop(heap)
                event._queued = False
                continue
            if time > bound:
                break
            heappop(heap)
            event._queued = False
            if time < self._now:
                raise SimulationError(
                    f"event at {time} surfaced after the clock reached {self._now} "
                    "(heap delivered out of order)"
                )
            self._now = time
            self._events_processed += 1
            self._pending -= 1
            fired += 1
            if trace is not None:
                trace(time, getattr(event.callback, "__qualname__", repr(event.callback)))
            event.callback(*event.args)
            if len(pool) < _POOL_MAX and getrefcount(event) == 2:
                # Nobody kept the handle: recycle it (drop payload refs so
                # pooled handles never pin callbacks or arguments alive).
                event.callback = None
                event.args = ()
                pool.append(event)
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
        while heap and heap[0][3].cancelled:
            heappop(heap)[3]._queued = False
        return heap[0][0] if heap else None

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def drain(self) -> Iterator[ScheduledEvent]:
        """Pop and yield all remaining (non-cancelled) events without firing them.

        Mainly useful for inspecting the end-of-run state in tests.
        """
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            event._queued = False
            if not event.cancelled:
                self._pending -= 1
                yield event

    # ------------------------------------------------------------------ #
    # Pickling (checkpoint/resume support)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Snapshot the simulator without its transient accelerators.

        The handle pool holds dead, payload-stripped handles — recycling is
        behaviourally invisible, so a restored simulator simply starts with
        an empty pool.  The trace hook is a debugging callable that may not
        pickle (and a resumed run attaches its own); it is dropped likewise.
        A simulator cannot be snapshotted mid-``run()``: the checkpoint
        driver only pickles between events, where ``_running`` is False.
        """
        if self._running:
            raise SimulationError("cannot pickle a simulator while it is running")
        state = self.__dict__.copy()
        state["_pool"] = []
        state["_trace"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"Simulator(now={self._now:.3f}, pending={self.pending}, "
            f"fired={self._events_processed})"
        )
