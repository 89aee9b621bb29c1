"""Max-min fair bandwidth sharing (processor-sharing pipe).

Models a shared capacity (the 3G cell tower, or a server NIC) divided
among concurrent flows.  Each flow may also be individually capped (a
phone's own radio rate).  Allocation is classic water-filling max-min
fairness; the pipe recomputes rates whenever a flow starts or finishes.

This is the mechanism behind Fig. 9's observation that *many simultaneous
departures* degrade MobiStreams: every departing phone's state transfer
shares the same cellular uplink, so per-flow rate collapses as n grows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


def max_min_fair_rates(capacity: float, caps: Sequence[float]) -> np.ndarray:
    """Water-filling allocation of ``capacity`` among flows with ``caps``.

    Every flow receives ``min(cap_i, fair_share)`` where the fair share is
    raised until the capacity is exhausted or every flow is capped.

    Returns an array of per-flow rates summing to
    ``min(capacity, sum(caps))``.
    """
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    caps_arr = np.asarray(caps, dtype=float)
    if caps_arr.size == 0:
        return caps_arr.copy()
    if np.any(caps_arr < 0):
        raise ValueError("flow caps must be >= 0")

    order = np.argsort(caps_arr)
    rates = np.empty_like(caps_arr)
    remaining = float(capacity)
    n_left = caps_arr.size
    for idx in order:
        share = remaining / n_left
        give = min(caps_arr[idx], share)
        rates[idx] = give
        remaining -= give
        n_left -= 1
    return rates


class _Flow:
    """Internal: one in-flight transfer through a :class:`FairSharePipe`."""

    __slots__ = ("flow_id", "remaining", "cap", "rate", "event")

    def __init__(self, flow_id: int, size: float, cap: float, event: Event) -> None:
        self.flow_id = flow_id
        self.remaining = float(size)
        self.cap = cap
        self.rate = 0.0
        self.event = event


class FairSharePipe:
    """Shared-capacity pipe with max-min fair processor sharing.

    Usage::

        pipe = FairSharePipe(sim, capacity_bps=Mbps(0.32))
        done = pipe.transfer(size_bytes=2 * MB, cap_bps=Mbps(0.1))
        yield done   # fires when the transfer completes

    Completion times are exact under piecewise-constant rates: whenever the
    flow set changes, progress is accrued and rates recomputed.
    """

    def __init__(self, sim: "Simulator", capacity_bps: float) -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity_bps = capacity_bps
        self._flows: Dict[int, _Flow] = {}
        self._next_id = 0
        self._last_update = sim.now
        self._timer_epoch = 0  # invalidates stale completion timers

    # -- public ----------------------------------------------------------
    def transfer(self, size_bytes: float, cap_bps: Optional[float] = None) -> Event:
        """Start a transfer; returns the event fired at completion.

        Parameters
        ----------
        size_bytes:
            Transfer size. Zero-byte transfers complete immediately.
        cap_bps:
            Optional per-flow rate cap (e.g. a phone's own link rate).
        """
        if size_bytes < 0:
            raise ValueError("size must be >= 0")
        ev = Event(self.sim)
        if size_bytes == 0:
            ev.succeed()
            return ev
        cap = cap_bps if cap_bps is not None else float("inf")
        if cap <= 0:
            raise ValueError("cap must be positive")
        self._accrue()
        flow = _Flow(self._next_id, size_bytes * 8.0, cap, ev)
        self._next_id += 1
        self._flows[flow.flow_id] = flow
        self._reallocate()
        return ev

    # -- engine ----------------------------------------------------------
    def _accrue(self) -> None:
        """Advance every flow by the time elapsed since the last update."""
        dt = self.sim.now - self._last_update
        self._last_update = self.sim.now
        if dt <= 0:
            return
        finished: List[_Flow] = []
        for flow in self._flows.values():
            flow.remaining -= flow.rate * dt
            # Anything under half a bit is float residue: the timer fired at
            # the flow's nominal completion time, so declare it done (a
            # stricter tolerance can stall the clock once the residual
            # horizon drops below the ulp of `now`).
            if flow.remaining <= 0.5:
                finished.append(flow)
        for flow in finished:
            del self._flows[flow.flow_id]
            flow.event.succeed()

    def _reallocate(self) -> None:
        """Recompute rates and arm a timer for the earliest completion."""
        self._timer_epoch += 1
        if not self._flows:
            return
        flows = list(self._flows.values())
        rates = max_min_fair_rates(self.capacity_bps, [f.cap for f in flows])
        for flow, rate in zip(flows, rates):
            flow.rate = float(rate)
        # Earliest completion under the new rates.
        horizon = min(
            (f.remaining / f.rate for f in flows if f.rate > 0),
            default=None,
        )
        if horizon is None:  # all rates zero: starved (capacity exhausted?)
            return
        epoch = self._timer_epoch
        self.sim.call_in(horizon, lambda: self._on_timer(epoch))

    def _on_timer(self, epoch: int) -> None:
        if epoch != self._timer_epoch:
            return  # superseded by a newer reallocation
        self._accrue()
        self._reallocate()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FairSharePipe cap={self.capacity_bps:.0f}bps "
            f"flows={len(self._flows)}>"
        )
