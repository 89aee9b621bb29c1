"""Tests for the simulator event loop and clock."""

import pytest

from repro.sim import Simulator, StopSimulation
from repro.sim.core import EmptySchedule


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


def test_step_on_empty_schedule_raises():
    sim = Simulator()
    with pytest.raises(EmptySchedule):
        sim.step()


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.0)
        return "result"

    p = sim.process(proc(sim))
    assert sim.run_until_event(p) == "result"
    assert sim.now == 2.0


def test_run_until_event_raises_on_failure():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    p = sim.process(proc(sim))
    with pytest.raises(ValueError, match="boom"):
        sim.run_until_event(p)


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


def test_events_processed_counts_run_and_step():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.step()
    assert sim.events_processed == 1
    sim.run()
    assert sim.events_processed == 2


def test_run_inlined_loop_matches_step_semantics():
    """run() inlines the event loop; a failing un-defused event must
    still surface, exactly as through step()."""
    sim = Simulator()
    ev = sim.event()
    sim.call_in(1.0, lambda: ev.fail(RuntimeError("lost")))
    with pytest.raises(RuntimeError, match="lost"):
        sim.run()
