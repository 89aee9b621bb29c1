"""Contended resources and mailboxes.

Two primitives cover every need in this codebase:

* :class:`Resource` — ``capacity`` interchangeable slots, FIFO queueing.
  Used for the half-duplex WiFi channel (capacity 1) and CPU cores.
* :class:`Store` — an unbounded (or bounded) FIFO of Python objects with
  blocking ``get``.  Used as per-node tuple mailboxes and control queues.

Both hand out :class:`~repro.sim.events.Event` objects so processes
simply ``yield`` them.  A request for a free slot is born processed: it
never enters the event queue, and a process that yields it continues in
the same step.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

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


class Store:
    """FIFO mailbox of arbitrary items with blocking ``get``.

    ``put`` never blocks unless ``capacity`` is set and reached, in which
    case it raises (back-pressure in this codebase is modelled at the
    network layer, not in mailboxes — a bounded mailbox overflowing is a
    programming error we want loud).
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None) -> None:
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Deque[Any]:
        """The queued items (read-only view by convention)."""
        return self._items

    def put(self, item: Any) -> None:
        """Append ``item``; wakes the oldest waiting getter, if any."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            raise OverflowError(
                f"Store capacity {self.capacity} exceeded; "
                "mailbox overflow indicates a modelling bug"
            )
        self._items.append(item)
        self._dispatch()

    def get(self) -> Event:
        """Event that fires with the next item (immediately if available)."""
        ev = Event(self.sim)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def try_get(self) -> Any:
        """Non-blocking pop; returns None when empty."""
        if self._items and not self._getters:
            return self._items.popleft()
        return None

    def clear(self) -> int:
        """Drop all queued items; returns how many were dropped."""
        n = len(self._items)
        self._items.clear()
        return n

    def cancel_getters(self, exc: BaseException) -> None:
        """Fail all pending ``get`` events (used when a node dies)."""
        getters, self._getters = self._getters, deque()
        for ev in getters:
            if not ev.triggered:
                ev.fail(exc)

    def _dispatch(self) -> None:
        while self._items and self._getters:
            ev = self._getters.popleft()
            if ev.triggered:  # cancelled getter
                continue
            ev.succeed(self._items.popleft())


class _FilterGet(Event):
    """Get-event carrying the predicate it is waiting to satisfy."""

    __slots__ = ("_predicate",)

    def __init__(self, sim: "Simulator", predicate) -> None:
        super().__init__(sim)
        self._predicate = predicate


class FilterStore(Store):
    """A :class:`Store` whose getters may demand a matching predicate."""

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        """Event that fires with the first item satisfying ``predicate``."""
        ev = _FilterGet(self.sim, predicate)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        made_progress = True
        while made_progress:
            made_progress = False
            for ev in list(self._getters):
                if ev.triggered:
                    self._getters.remove(ev)
                    continue
                pred = getattr(ev, "_predicate", None)
                for item in self._items:
                    if pred is None or pred(item):
                        self._items.remove(item)
                        self._getters.remove(ev)
                        ev.succeed(item)
                        made_progress = True
                        break
                if made_progress:
                    break
