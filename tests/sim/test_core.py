"""Tests for the simulator event loop and clock."""

import pytest

from repro.sim import Simulator, StopSimulation


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=100.0)
    assert sim.now == 100.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.call_in(10.0, lambda: fired.append(10))
    sim.call_in(50.0, lambda: fired.append(50))
    sim.run(until=20.0)
    assert fired == [10]
    assert sim.now == 20.0


def test_run_until_past_raises():
    sim = Simulator(start_time=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_in(3.0, lambda: order.append("c"))
    sim.call_in(1.0, lambda: order.append("a"))
    sim.call_in(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_insertion_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.call_in(1.0, lambda l=label: order.append(l))
    sim.run()
    assert order == list("abcde")


def test_call_at_absolute_time():
    sim = Simulator()
    times = []
    sim.call_at(7.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [7.5]


def test_call_at_past_raises():
    sim = Simulator(start_time=5.0)
    with pytest.raises(ValueError):
        sim.call_at(1.0, lambda: None)


def test_unhandled_failed_event_raises_from_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("lost"))
    with pytest.raises(RuntimeError, match="lost"):
        sim.run()


def test_defused_failed_event_does_not_raise():
    sim = Simulator()
    ev = sim.event()
    ev.defuse()
    ev.fail(RuntimeError("lost"))
    sim.run()  # no exception


def test_stop_simulation_exits_run():
    sim = Simulator()

    def stopper(_e):
        raise StopSimulation()

    ev = sim.timeout(1.0)
    ev.add_callback(stopper)
    sim.call_in(5.0, lambda: pytest.fail("should not run"))
    sim.run()
    assert sim.now == 1.0


def test_call_in_passes_args_without_closure():
    sim = Simulator()
    seen = []
    sim.call_in(1.0, seen.append, "payload")
    sim.call_in(2.0, lambda: seen.append("thunk"))
    sim.run()
    assert seen == ["payload", "thunk"]


def test_call_at_passes_args():
    sim = Simulator()
    seen = []
    sim.call_at(5.0, seen.append, 42)
    sim.run()
    assert seen == [42] and sim.now == 5.0


def test_run_inlined_loop_matches_step_semantics():
    """A failing un-defused event scheduled mid-run must surface from
    the run loop, not be dropped."""
    sim = Simulator()
    ev = sim.event()
    sim.call_in(1.0, lambda: ev.fail(RuntimeError("lost")))
    with pytest.raises(RuntimeError, match="lost"):
        sim.run()
