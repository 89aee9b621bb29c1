"""Failure injection: crashes on schedules.

The paper's central fault-model claim (Section I): on a smartphone
platform, *burst* failures — several phones at once — are common, unlike
the single-node failures prior server DSPS schemes assume.  The injector
produces exactly those scenarios:

* ``crash_at(t, ids)`` — n phones die simultaneously (Fig. 9 failures).
* Battery-driven organic failures are modelled by the phones themselves;
  the injector is for *controlled* experiments.

Injection is routed through a registered handler (the region runtime), so
the injector stays decoupled from DSPS internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.util.simlog import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.sim.monitor import Trace


class PhoneFailure(Exception):
    """Interrupt cause delivered to processes on a crashing phone."""

    def __init__(self, phone_id: str, reason: str = "crash") -> None:
        super().__init__(f"{phone_id}: {reason}")
        self.phone_id = phone_id
        self.reason = reason


@dataclass(frozen=True)
class FailureEvent:
    """A scheduled crash of one phone."""

    time: float
    phone_id: str
    reason: str = "injected"


class FailureInjector:
    """Schedules crash events against registered handlers."""

    def __init__(self, sim: "Simulator", trace: Optional["Trace"] = None) -> None:
        self.sim = sim
        self.trace = trace
        self._crash_handler: Optional[Callable[[str, str], None]] = None
        self._liveness: Optional[Callable[[str], bool]] = None
        self._warned_dead = False
        self.injected: List[FailureEvent] = []

    def on_crash(self, handler: Callable[[str, str], None]) -> None:
        """Register ``handler(phone_id, reason)`` to apply crashes."""
        self._crash_handler = handler

    def on_liveness(self, probe: Callable[[str], bool]) -> None:
        """Register ``probe(phone_id) -> bool`` saying whether a phone is
        still alive.  With a probe installed, firing a crash against an
        already-dead (or departed) phone becomes a logged no-op instead
        of reaching the handler.  Probes should return True for *unknown*
        ids so typos still fail loudly in the handler."""
        self._liveness = probe

    # -- schedules ----------------------------------------------------------
    def crash_at(self, time: float, phone_ids: Sequence[str], reason: str = "injected") -> None:
        """All of ``phone_ids`` crash simultaneously at ``time``."""
        for pid in phone_ids:
            self.sim.call_at(time, lambda p=pid: self._fire(p, reason))
            self.injected.append(FailureEvent(time, pid, reason))

    def schedule(self, events: Sequence[FailureEvent]) -> None:
        """Schedule an arbitrary list of timed crash events."""
        for ev in events:
            self.sim.call_at(ev.time, lambda e=ev: self._fire(e.phone_id, e.reason))
            self.injected.append(ev)

    def cascade(
        self,
        start: float,
        interval: float,
        phone_ids: Sequence[str],
        reason: str = "cascade",
    ) -> None:
        """Staggered burst: one phone of ``phone_ids`` crashes every
        ``interval`` seconds starting at ``start`` (a failure cascade
        rolling through the region within one checkpoint period)."""
        self.schedule([
            FailureEvent(start + i * interval, pid, reason)
            for i, pid in enumerate(phone_ids)
        ])

    def _fire(self, phone_id: str, reason: str) -> None:
        if self._liveness is not None and not self._liveness(phone_id):
            # Scripted double-kill (a cascade overlapping an organic
            # battery death, a spec listing one phone twice): nothing to
            # crash.  Warn once per injector so a mis-written scenario is
            # visible without flooding the log.
            if not self._warned_dead:
                self._warned_dead = True
                get_logger().warning(
                    "injector: crash of already-dead/departed phone %r at "
                    "t=%.3fs is a no-op (further skips logged silently)",
                    phone_id, self.sim.now,
                )
            if self.trace is not None:
                self.trace.count("failures.skipped_dead")
            return
        if self.trace is not None:
            self.trace.record(self.sim.now, "failure_injected", phone=phone_id, reason=reason)
            self.trace.count("failures.injected")
        if self._crash_handler is None:
            raise RuntimeError("no crash handler registered")
        self._crash_handler(phone_id, reason)
