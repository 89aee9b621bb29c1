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
    _DEAD_DROPPED,
    AllOf,
    AnyOf,
    Callback,
    Event,
    Timeout,
)
from repro.sim.process import Process


class StopSimulation(Exception):
    """Raised internally to end :meth:`Simulator.run` early."""


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


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

    #: Compaction trigger: once at least this many cancelled entries are
    #: queued *and* they outnumber live ones, the queue is rebuilt.  The
    #: floor keeps tiny queues from compacting on every cancellation.
    COMPACT_MIN_DEAD = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        # A C-level partial: the fused Timeout constructor calls this
        # once per scheduled event, so it must not cost a Python frame.
        self._push = partial(heapq.heappush, self._queue)
        self._seq = 0
        #: Cancelled-but-still-queued entries (lazy deletion bookkeeping).
        self.dead_entries = 0
        self._active_process: Optional[Process] = None
        #: Events processed so far (the perf subsystem's events/sec);
        #: current on every event, so observers sampling mid-run see it.
        self.events_processed = 0

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

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

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has succeeded."""
        return AnyOf(self, events)

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
        each firing schedules only the next one, and cancelling also
        cancels the in-flight event, so a dead sampler leaves nothing in
        the queue.  An active sampler keeps the queue non-empty forever —
        pair it with ``run(until=...)`` or cancel it before a final drain.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        # [cancelled?, pending Callback] — one shared cell per sampler.
        state: List[Any] = [False, None]

        def _fire() -> None:
            if state[0]:
                return
            fn(*args)
            if not state[0]:
                state[1] = Callback(self, interval, _fire, ())

        state[1] = Callback(self, interval, _fire, ())

        def cancel() -> None:
            state[0] = True
            pending = state[1]
            if pending is not None:
                pending.cancel()
                state[1] = None

        return cancel

    # -- scheduling --------------------------------------------------------
    def _schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Insert a triggered event into the queue (internal)."""
        self._seq += 1
        self._push((self._now + delay, priority, self._seq, event))

    def _queued(self) -> int:
        """Entries currently scheduled (live + cancelled)."""
        return len(self._queue)

    def _note_cancelled(self) -> None:
        """Bookkeeping for a lazily-deleted (cancelled) queue entry.

        Cancelled entries normally just sit until their deadline pops
        them as no-ops; when they outnumber live entries the queue is
        compacted wholesale so ghost timers can't dominate push/pop
        costs in churn-heavy workloads.
        """
        self.dead_entries += 1
        if (
            self.dead_entries >= self.COMPACT_MIN_DEAD
            and self.dead_entries * 2 >= self._queued()
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the queue without its cancelled entries.

        Removed timeouts are flagged ``_DEAD_DROPPED`` so a later
        ``add_callback`` revival knows no queue entry survives and
        re-pushes one at the stored deadline.
        """
        # In-place so run()'s local alias to the list stays valid.
        live = []
        for item in self._queue:
            if item[3].callbacks is not None:
                live.append(item)
            else:
                item[3]._cancelled = _DEAD_DROPPED
        self._queue[:] = live
        heapq.heapify(self._queue)
        self.dead_entries = 0

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event; raises :class:`EmptySchedule` if none."""
        try:
            self._now, _prio, _seq, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self.events_processed += 1

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            # A cancelled entry reaching its deadline: nothing runs, but
            # it still counts as processed (identical to the pre-cancel
            # behavior of popping an orphaned timeout).  Clearing the
            # flag makes a later add_callback fire immediately (expired
            # timeout) instead of reviving an entry that no longer exists.
            event._cancelled = False
            self.dead_entries -= 1
            return
        for callback in callbacks:
            callback(event)

        if event._ok is False and not event._defused:
            # An un-handled failure: surface it rather than losing it.
            exc = event._value
            raise exc

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
        # The event loop is inlined here (rather than calling step() per
        # event): the method-call overhead, the per-event try/except, and
        # the repeated attribute lookups are measurable at millions of
        # events per run.  Semantics are identical to step().
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                self._now, _prio, _seq, event = heappop(queue)
                self.events_processed += 1
                callbacks, event.callbacks = event.callbacks, None
                if callbacks is None:
                    event._cancelled = False
                    self.dead_entries -= 1
                    continue
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event._defused:
                    raise event._value
            if until is not None and self._now < until:
                self._now = until
        except StopSimulation:
            pass

    def run_until_event(self, event: Event) -> Any:
        """Run until ``event`` triggers; returns its value (raises if failed)."""
        event.add_callback(self._stop_callback)
        try:
            while not event.triggered:
                self.step()
        except StopSimulation:
            pass
        if event._ok is False:
            event.defuse()
            raise event._value
        return event.value

    @staticmethod
    def _stop_callback(_event: Event) -> None:
        raise StopSimulation()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.6f} queued={self._queued()}>"
