"""Tests for the failure injector and mobility models."""

import pytest

from repro.device import FailureInjector, ScriptedDepartures, StaticMobility
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


def test_static_mobility_no_events():
    sim = Simulator()
    StaticMobility().start(sim, lambda pid: pytest.fail("no departures expected"))
    sim.run()


def test_scripted_departures_simultaneous():
    sim = Simulator()
    gone = []
    model = ScriptedDepartures.simultaneous(60.0, ["a", "b"])
    model.start(sim, lambda pid: gone.append((sim.now, pid)))
    sim.run()
    assert gone == [(60.0, "a"), (60.0, "b")]


def test_scripted_departures_periodic():
    sim = Simulator()
    gone = []
    model = ScriptedDepartures.periodic(300.0, ["a", "b", "c"])
    model.start(sim, lambda pid: gone.append((sim.now, pid)))
    sim.run()
    assert gone == [(300.0, "a"), (600.0, "b"), (900.0, "c")]
