"""Discrete-event simulation kernel.

This package is the substrate that replaces the GridSim toolkit used in the
paper: a small, deterministic, single-threaded discrete-event simulator with

* one event kernel (:class:`~repro.sim.engine.Simulator`: a binary heap
  ordered by ``(time, priority, seq)``, driven by one loop),
* named simulation entities that exchange timestamped events
  (:class:`~repro.sim.entity.Entity`),
* reproducible, independently-seeded random streams
  (:class:`~repro.sim.rng.RandomStreams`), and
* light-weight process helpers (:mod:`repro.sim.process`).

Everything else in :mod:`repro` (clusters, GFAs, the federation directory)
is built on top of these primitives.
"""

from repro.sim.engine import Simulator, ScheduledEvent, SimulationError
from repro.sim.entity import Entity
from repro.sim.events import Event, EventType
from repro.sim.rng import RandomStreams
from repro.sim.process import Process, Timeout

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "SimulationError",
    "Entity",
    "Event",
    "EventType",
    "RandomStreams",
    "Process",
    "Timeout",
]
