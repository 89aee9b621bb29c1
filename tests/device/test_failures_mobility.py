"""Tests for the failure injector and scripted departures."""

import pytest

from repro.device import FailureInjector
from repro.scenarios import EventDirector, build_system
from repro.scenarios.spec import EventSpec, MatrixSpec, ScenarioSpec
from repro.sim import Simulator, Trace


def test_crash_at_fires_simultaneously():
    sim = Simulator()
    inj = FailureInjector(sim)
    crashed = []
    inj.on_crash(lambda pid, reason: crashed.append((sim.now, pid, reason)))
    inj.crash_at(10.0, ["p1", "p2", "p3"], reason="burst")
    sim.run()
    assert crashed == [(10.0, "p1", "burst"), (10.0, "p2", "burst"), (10.0, "p3", "burst")]


def test_injector_without_handler_raises():
    sim = Simulator()
    inj = FailureInjector(sim)
    inj.crash_at(1.0, ["p"])
    with pytest.raises(RuntimeError):
        sim.run()


def test_injector_traces():
    sim = Simulator()
    trace = Trace()
    inj = FailureInjector(sim, trace=trace)
    inj.on_crash(lambda pid, reason: None)
    inj.crash_at(1.0, ["p1", "p2"])
    sim.run()
    assert trace.value("failures.injected") == 2
    assert trace.count_of("failure_injected") == 2


def _departures(spec_events):
    """(time, phone) of every ``phone_departed`` record of a short ms-8
    run whose script is ``spec_events``."""
    spec = ScenarioSpec(
        name="t", duration_s=1000.0, warmup_s=0.0, idle_per_region=4,
        checkpoint_period_s=60.0, events=tuple(spec_events),
        matrix=MatrixSpec(apps=("bcp",), schemes=("ms-8",), seeds=(3,)),
    )
    system = build_system(spec, "bcp", "ms-8", 3)
    director = EventDirector(system, spec)
    director.install()
    system.start()
    director.schedule()
    system.run(spec.duration_s)
    return [(r.time, r.data["phone"]) for r in system.trace.select("phone_departed")]


def test_static_mobility_no_events():
    assert _departures([]) == []


def test_scripted_departures_simultaneous():
    gone = _departures([EventSpec(kind="depart", time=60.0, phones=(1, 2))])
    assert gone == [(60.0, "region0.p1"), (60.0, "region0.p2")]


def test_scripted_departures_periodic():
    gone = _departures([
        EventSpec(kind="depart", time=300.0 * (i + 1), phones=(i + 1,))
        for i in range(3)
    ])
    assert gone == [(300.0, "region0.p1"), (600.0, "region0.p2"),
                    (900.0, "region0.p3")]
