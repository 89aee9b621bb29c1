"""Event primitives for the simulation kernel.

Events are one-shot occurrences on the virtual timeline.  An event moves
through three states:

``pending``   — created, not yet triggered.
``triggered`` — has a value (or an exception) and sits in the event queue.
``processed`` — its callbacks have run.

Processes (see :mod:`repro.sim.process`) wait on events by ``yield``-ing
them; arbitrary code can also attach callbacks directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Simulator

#: Sentinel for "no value yet".
PENDING = object()

#: Queue priorities.  Defined here (not in core) so the fused Timeout
#: construction can push directly; :mod:`repro.sim.core` re-exports
#: them as its public names.
#: Priority for urgent events (interrupts, process init).
URGENT = 0
#: Priority for normal events.
NORMAL = 1


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.core.Simulator`.

    Notes
    -----
    ``succeed``/``fail`` may be called at most once; a second call raises
    :class:`RuntimeError`.  Failed events whose exception is never consumed
    (no callback, no waiting process) re-raise at the end of the step so
    errors are not silently dropped.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callables ``cb(event)`` invoked when the event is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """``True`` for success, ``False`` for failure, ``None`` if pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled, suppressing re-raise."""
        self._defused = True

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Returns the event itself so that ``return event.succeed()`` chains.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is thrown into any process waiting on this event.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; runs immediately if already processed."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` units of virtual time in the future.

    A timeout cannot be withdrawn: one that nothing waits on any more
    still pops at its deadline, runs no callback and counts as one
    processed event.
    """

    __slots__ = ("delay", "deadline")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Fused construction: a timeout is born triggered and scheduled,
        # so the base-class pending state and the _schedule() indirection
        # are skipped — this is the single most-allocated event type.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        self.deadline = sim._now + delay
        sim._seq += 1
        sim._push((self.deadline, NORMAL, sim._seq, self))

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout events trigger themselves")


def _run_deferred(event: "Event") -> None:
    """Module-level trampoline for :class:`Callback` (no per-call closure)."""
    event._fn(*event._args)


class Callback(Timeout):
    """A timeout that invokes a stored callable when it fires.

    ``Simulator.call_in``/``call_at`` used to allocate a Timeout *plus* a
    closure per delivery; this carries the function and its arguments in
    slots and dispatches through one shared module-level trampoline.
    """

    __slots__ = ("_fn", "_args")

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        fn: Callable[..., None],
        args: tuple = (),
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.sim = sim
        self.callbacks = [_run_deferred]
        self._value = None
        self._ok = True
        self._defused = False
        self.delay = delay
        self.deadline = sim._now + delay
        self._fn = fn
        self._args = args
        sim._seq += 1
        sim._push((self.deadline, NORMAL, sim._seq, self))


class AllOf(Event):
    """Composite event that fires when *all* of ``events`` have succeeded.

    Failure of any sub-event fails it immediately (fail-fast).
    """

    __slots__ = ("_events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.sim is not sim:
                raise ValueError("events belong to different simulators")

        if not self._events:
            # Degenerate condition: trivially true.
            self.succeed()
            return

        for event in self._events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self._events):
            self.succeed()
