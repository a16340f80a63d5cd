"""Discrete-event simulation kernel.

This package is the substrate that replaces the GridSim toolkit used in the
paper: a small, deterministic, single-threaded discrete-event simulator with

* one event kernel (:class:`~repro.sim.engine.Simulator`: a binary heap of
  plain ``(time, priority, seq, callback, args)`` tuples, driven by one
  loop; an event is named by its ``seq``, which ``cancel`` takes),
* the name → agent map GFAs address each other through
  (:class:`~repro.sim.entity.EntityRegistry`), and
* reproducible, independently-seeded random streams
  (:class:`~repro.sim.rng.RandomStreams`).

Everything else in :mod:`repro` (clusters, GFAs, the federation directory)
is built on top of these primitives.
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.rng import RandomStreams

__all__ = [
    "Simulator",
    "SimulationError",
    "RandomStreams",
]
