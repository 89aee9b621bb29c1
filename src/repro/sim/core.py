"""The simulator: virtual clock plus event queue.

The queue orders events by ``(time, priority, sequence)``; the sequence
number makes scheduling deterministic for simultaneous events.  Priority 0
is reserved for "urgent" occurrences (process initialization, interrupts)
so they pre-empt ordinary events scheduled at the same instant; ordinary
events use priority 1.

One binary heap implements that total order, and one run loop drains it.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.sim.events import (  # noqa: F401  (NORMAL/URGENT re-exported)
    NORMAL,
    URGENT,
    AllOf,
    Callback,
    Event,
    Timeout,
)
from repro.sim.process import Process


class StopSimulation(Exception):
    """Raised internally to end :meth:`Simulator.run` early."""


class Simulator:
    """Discrete-event simulator with a float-seconds virtual clock.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert proc.value == "done"
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        # A C-level partial: the fused Timeout constructor calls this
        # once per scheduled event, so it must not cost a Python frame.
        self._push = partial(heapq.heappush, self._queue)
        self._seq = 0
        #: Events processed so far (the work count behind ``sim.events``);
        #: current on every event, so observers sampling mid-run see it.
        self.events_processed = 0

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def call_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute virtual ``time`` (>= now)."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        return Callback(self, time - self._now, fn, args)

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time.

        Accepting ``*args`` directly lets hot callers (network delivery)
        skip building a fresh closure per scheduled call.
        """
        return Callback(self, delay, fn, args)

    def call_every(
        self, interval: float, fn: Callable[..., None], *args: Any
    ) -> Callable[[], None]:
        """Run ``fn(*args)`` every ``interval`` seconds of virtual time,
        starting one interval from now.  Returns a zero-argument cancel
        function; after cancelling, no further calls fire (including one
        already scheduled).

        This is the sampling hook for periodic observers (telemetry):
        each firing schedules only the next one.  A cancelled sampler's
        pending call still pops once, runs nothing and schedules no
        successor.  An active sampler keeps the queue non-empty forever —
        pair it with ``run(until=...)`` or cancel it before a final drain.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        cancelled = False

        def _fire() -> None:
            if cancelled:
                return
            fn(*args)
            if not cancelled:
                Callback(self, interval, _fire, ())

        Callback(self, interval, _fire, ())

        def cancel() -> None:
            nonlocal cancelled
            cancelled = True

        return cancel

    # -- scheduling --------------------------------------------------------
    def _schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Insert a triggered event into the queue (internal)."""
        self._seq += 1
        self._push((self._now + delay, priority, self._seq, event))

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, mirroring SimPy semantics.
        """
        if until is not None:
            if until < self._now:
                raise ValueError(f"until ({until}) is in the past (now={self._now})")
            stopper = self.timeout(until - self._now)
            stopper.add_callback(self._stop_callback)
        # Hot loop: locals instead of attribute lookups, no per-event
        # method call.  An un-handled failure is surfaced rather than
        # lost.
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                self._now, _prio, _seq, event = heappop(queue)
                self.events_processed += 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event._defused:
                    raise event._value
            if until is not None and self._now < until:
                self._now = until
        except StopSimulation:
            pass

    @staticmethod
    def _stop_callback(_event: Event) -> None:
        raise StopSimulation()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.6f} queued={len(self._queue)}>"
