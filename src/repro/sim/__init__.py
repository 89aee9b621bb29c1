"""Discrete-event simulation kernel.

A small, dependency-free, SimPy-flavoured event loop used as the substrate
for every MobiStreams experiment.  The public surface is:

* :class:`~repro.sim.core.Simulator` — the event loop and virtual clock.
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AnyOf`, :class:`~repro.sim.events.AllOf` —
  awaitable occurrences.
* :class:`~repro.sim.process.Process` and
  :class:`~repro.sim.process.Interrupt` — generator-based coroutines.
* :class:`~repro.sim.resources.Resource` — contended capacity.
* :class:`~repro.sim.rng.RngRegistry` — named, reproducible random streams.
* :class:`~repro.sim.monitor.Trace` — structured event recording.

Design notes
------------
The kernel is deliberately deterministic: given the same master seed and
the same sequence of API calls, two runs produce identical traces.  All
randomness is funnelled through :class:`~repro.sim.rng.RngRegistry`; the
event queue (one binary heap) breaks time ties by insertion order.
"""

from repro.sim.core import Simulator, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.monitor import Counter, Trace
from repro.sim.process import Interrupt, Process
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "RngRegistry",
    "Simulator",
    "StopSimulation",
    "Timeout",
    "Trace",
]
