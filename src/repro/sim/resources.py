"""Contended resources.

:class:`Resource` — ``capacity`` interchangeable slots, FIFO queueing —
models the half-duplex WiFi channel (capacity 1) and CPU cores.  It
hands out :class:`~repro.sim.events.Event` objects so processes simply
``yield`` them.  A request for a free slot is born processed: it
never enters the event queue, and a process that yields it continues in
the same step.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from repro.sim.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class Request(Event):
    """Event granted when a :class:`Resource` slot becomes available."""

    __slots__ = ("resource",)

    def __init__(self, sim: "Simulator", resource: "Resource") -> None:
        # Event.__init__ inlined: one request per operator call and send.
        self.sim = sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` interchangeable slots with FIFO granting.

    A free slot is granted inside :meth:`request` (the request comes back
    already processed); a contended request waits in FIFO order and is
    granted by an event that :meth:`release` schedules.

    Usage from a process::

        req = channel.request()
        yield req
        try:
            yield sim.timeout(tx_time)
        finally:
            channel.release(req)
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._users: set = set()
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when granted.

        When a slot is free the request is granted on the spot and
        returned processed (``callbacks is None``), so no grant event is
        scheduled.
        """
        req = Request(self.sim, self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req._ok = True
            req._value = None
            req.callbacks = None
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a slot; grants the longest-waiting request, if any.

        Releasing a request that was never granted cancels it instead.
        """
        users, waiting = self._users, self._waiting
        if request in users:
            users.remove(request)
            while waiting and len(users) < self.capacity:
                nxt = waiting.popleft()
                if nxt.triggered:  # cancelled while waiting
                    continue
                users.add(nxt)
                nxt.succeed()
        else:
            try:
                waiting.remove(request)
            except ValueError:
                pass  # already released / cancelled: idempotent

