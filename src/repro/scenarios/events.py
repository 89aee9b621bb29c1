"""Scripted-event injection: a ScenarioSpec's script driving a live system.

The :class:`EventDirector` translates the declarative event entries of a
:class:`~repro.scenarios.spec.ScenarioSpec` into concrete actions against
a built :class:`~repro.core.system.MobiStreamsSystem` — the
:class:`~repro.device.failures.FailureInjector` for crashes, the
mobility/departure path for churn, :meth:`admit_phone`/:meth:`handoff`
for arrivals, and source-rate scaling for workload surges.

Usage (what :mod:`repro.scenarios.runner` does)::

    director = EventDirector(system, spec)
    director.install()      # pre-start hooks (rate scalers, churn models)
    system.start()
    director.schedule()     # timed events, in the spec's listed order
    system.run(spec.duration_s)

The install/schedule split matters: surge scaling must wrap workload
iterators before the source drivers start, while crash/departure timing
must be scheduled *after* start so the simulator's same-timestamp event
order is identical to the hand-assembled harness (bit-for-bit
reproducibility of the paper benches through the refactored path).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List

from repro.device.mobility import PoissonChurn
from repro.scenarios.spec import EventSpec, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import MobiStreamsSystem


class RateScaledWorkload:
    """A workload iterator whose inter-arrival waits divide by a live scale.

    The scale is read when an item is *pulled* (one pull per emitted
    tuple), so a scheduled scale change takes effect from the next tuple
    on — good enough granularity for flash-crowd surges.
    """

    def __init__(self, inner: Iterable) -> None:
        self._inner = iter(inner)
        self.scale = 1.0

    def __iter__(self) -> "RateScaledWorkload":
        return self

    def __next__(self):
        wait, payload, size = next(self._inner)
        return wait / self.scale, payload, size


class EventDirector:
    """Arms one scenario's event script against one built system."""

    def __init__(self, system: "MobiStreamsSystem", spec: ScenarioSpec) -> None:
        self.system = system
        self.spec = spec
        #: Region index -> its installed rate scalers (one per source).
        self._scalers: Dict[int, List[RateScaledWorkload]] = {}

    # -- pre-start -----------------------------------------------------------
    def install(self) -> None:
        """Install hooks that must exist before the system starts."""
        surge_regions = {ev.region for ev in self.spec.events if ev.kind == "surge"}
        for r in sorted(surge_regions):
            scalers: List[RateScaledWorkload] = []

            def wrap(workload, _acc=scalers):
                scaler = RateScaledWorkload(workload)
                _acc.append(scaler)
                return scaler

            self.system.regions[r].wrap_workloads(wrap)
            self._scalers[r] = scalers
        for index, ev in enumerate(self.spec.events):
            if ev.kind == "churn":
                # Per-event seed derivation (master seed keyed by the
                # event's index) so concurrent churn waves draw
                # independent gap sequences.
                self.system.attach_mobility(PoissonChurn(
                    phone_ids=self._phone_ids(ev),
                    mean_interval_s=ev.interval,
                    start_at=ev.time,
                    until=ev.until,
                    seed=self.system.rng.master_seed * 1_000_003 + index,
                ))

    # -- post-start ----------------------------------------------------------
    def schedule(self) -> None:
        """Schedule every timed event, preserving the spec's order."""
        for ev in self.spec.events:
            handler = getattr(self, f"_schedule_{ev.kind}")
            handler(ev)

    def _phone_ids(self, ev: EventSpec) -> List[str]:
        return [f"region{ev.region}.p{i}" for i in ev.phones]

    def _schedule_crash(self, ev: EventSpec) -> None:
        self.system.injector.crash_at(ev.time, self._phone_ids(ev))

    def _schedule_cascade(self, ev: EventSpec) -> None:
        self.system.injector.cascade(ev.time, ev.interval, self._phone_ids(ev))

    def _schedule_depart(self, ev: EventSpec) -> None:
        sim = self.system.sim
        for pid in self._phone_ids(ev):
            sim.call_at(ev.time, lambda p=pid: self.system.apply_departure(p))

    def _schedule_churn(self, ev: EventSpec) -> None:
        pass  # armed via the mobility model in install()

    def _schedule_join(self, ev: EventSpec) -> None:
        def admit(r=ev.region, n=ev.count):
            for _ in range(n):
                self.system.admit_phone(r)

        self.system.sim.call_at(ev.time, admit)

    def _schedule_handoff(self, ev: EventSpec) -> None:
        sim = self.system.sim
        for pid in self._phone_ids(ev):
            sim.call_at(
                ev.time, lambda p=pid, t=ev.to_region: self.system.handoff(p, t)
            )

    def _schedule_surge(self, ev: EventSpec) -> None:
        sim = self.system.sim

        def set_scale(value: float, r=ev.region):
            for scaler in self._scalers.get(r, ()):
                scaler.scale = value
            self.system.trace.record(
                sim.now, "workload_surge", region=f"region{r}", factor=value
            )

        sim.call_at(ev.time, lambda f=ev.factor: set_scale(f))
        if ev.until is not None:
            sim.call_at(ev.until, lambda: set_scale(1.0))

    def _schedule_battery(self, ev: EventSpec) -> None:
        def drop(pids=self._phone_ids(ev), charge=ev.charge, r=ev.region):
            region = self.system.regions[r]
            for pid in pids:
                phone = self.system.find_phone(pid)
                # Departed/handed-off phones stay in the bookkeeping maps
                # (alive, but out of the WiFi cell) — don't drop a ghost.
                if phone is None or not phone.alive or not region.wifi.is_member(pid):
                    continue
                cap = phone.battery.config.capacity_j
                phone.battery.remaining_j = min(phone.battery.remaining_j, cap * charge)
                self.system.trace.record(
                    self.system.sim.now, "battery_dropped", phone=pid, charge=charge
                )

        self.system.sim.call_at(ev.time, drop)
