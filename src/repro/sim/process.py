"""Generator-based simulation processes.

A process wraps a Python generator that ``yield``s :class:`~repro.sim.events.Event`
instances.  When a yielded event triggers, the process resumes with the
event's value (or the event's exception is thrown into the generator).

Processes are themselves events: they trigger when the generator returns
(value = the ``StopIteration`` value) or raises.  This lets processes wait
on each other and compose with :class:`~repro.sim.events.AllOf` /
:class:`~repro.sim.events.AnyOf`.

Interrupts
----------
:meth:`Process.interrupt` throws an :class:`Interrupt` into the generator
at its current wait point — the mechanism used for phone failures and
departures: the failure injector interrupts every process pinned to a
phone, and the process's ``except Interrupt`` handler (or its absence)
models crash semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import PENDING, Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Attributes
    ----------
    cause:
        Arbitrary object describing why the process was interrupted
        (e.g. a :class:`~repro.device.failures.PhoneFailure`).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0]


class Process(Event):
    """A running simulation coroutine.

    Parameters
    ----------
    sim:
        Owning simulator.
    generator:
        A generator yielding events.
    name:
        Optional label used in traces and ``repr``.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        #: The event this process is currently waiting on (None when ready).
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process via an immediately-scheduled initialization
        # event so process bodies never run inside the constructor.
        init = Event(sim)
        init.callbacks.append(self._resume)
        init._ok = True
        init._value = None
        sim._schedule(init, priority=0)

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        Interrupting a finished process is a no-op error; interrupting a
        process twice before it resumes queues both interrupts.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self._target is self:  # pragma: no cover - defensive
            raise RuntimeError("a process cannot interrupt itself synchronously")
        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.sim._schedule(interrupt_event, priority=0)

    # -- engine ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome.

        A yielded event that is already processed (a resource slot
        granted on the spot) is fed straight back into the generator in
        the same step, without a trip through the queue.
        """
        if not self.is_alive:
            # Late interrupt or stale callback after termination: drop it.
            return
        # Detach from the event we were waiting on (it may differ from
        # `event` when an interrupt pre-empts the wait).
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            else:
                if not target.callbacks and type(target) is Timeout:
                    # A pre-empted plain timeout with no other listener
                    # would sit in the queue as a ghost until its
                    # deadline; cancel it so interrupt-heavy workloads
                    # (failure storms, churn) don't drag dead timers.
                    target.cancel()
        self._target = None
        sim = self.sim
        generator = self._generator
        while True:
            sim._active_process = self
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # The event failed: throw its exception into the process.
                    event.defuse()
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                sim._active_process = None
                self.succeed(exc.value)
                return
            except BaseException as exc:
                sim._active_process = None
                self.fail(exc)
                return
            sim._active_process = None

            if not isinstance(next_event, Event):
                error = RuntimeError(
                    f"process {self.name!r} yielded {next_event!r}, "
                    "which is not an Event"
                )
                generator.close()
                self.fail(error)
                return
            if next_event.sim is not sim:
                error = RuntimeError(
                    f"process {self.name!r} yielded an event from another simulator"
                )
                generator.close()
                self.fail(error)
                return

            callbacks = next_event.callbacks
            if callbacks is not None:
                self._target = next_event
                callbacks.append(self._resume)
                return
            if isinstance(next_event, Timeout):
                # Fired or cancelled: add_callback resumes us now or
                # revives the timeout at its deadline.
                self._target = next_event
                next_event.add_callback(self._resume)
                return
            event = next_event

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "done"
        return f"<Process {self.name!r} {state}>"
