"""Discrete-event simulation kernel for the PiCloud scale model.

This package provides the substrate every other layer runs on:

* :class:`~repro.sim.kernel.Simulator` -- the event loop and simulated clock.
* :class:`~repro.sim.process.Process` -- generator-based cooperative
  processes, with :class:`~repro.sim.process.Signal`,
  :class:`~repro.sim.process.Timeout`, ``AllOf``/``AnyOf`` combinators and
  interrupts.
* :mod:`~repro.sim.resources` -- counted resources, FIFO stores (mailboxes)
  and continuous-level containers.
* :class:`~repro.sim.rng.RngRegistry` -- named, reproducibly-seeded random
  streams so experiments are deterministic.

The kernel is intentionally SimPy-like: processes are plain generators that
``yield`` waitables, so component code reads as straight-line logic.
"""

from repro.sim.kernel import Event, Simulator
from repro.sim.process import AllOf, AnyOf, Interrupt, Process, Signal, Timeout
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "RngRegistry",
    "Signal",
    "Simulator",
    "Store",
    "Timeout",
]
