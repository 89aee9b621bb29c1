"""Tests for event primitives: trigger semantics, AllOf."""

import pytest

from repro.sim import Simulator
from repro.sim.events import AllOf
from repro.sim.process import Interrupt


def test_event_starts_pending():
    sim = Simulator()
    ev = sim.event()
    assert not ev.triggered
    assert not ev.processed
    assert ev.ok is None


def test_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(AttributeError):
        _ = ev.value


def test_succeed_sets_value():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(42)
    assert ev.triggered
    assert ev.ok is True
    assert ev.value == 42


def test_double_succeed_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()


def test_fail_then_succeed_raises():
    sim = Simulator()
    ev = sim.event()
    ev.defuse()
    ev.fail(ValueError("x"))
    with pytest.raises(RuntimeError):
        ev.succeed()


def test_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_callback_invoked_with_event():
    sim = Simulator()
    ev = sim.event()
    seen = []
    ev.add_callback(seen.append)
    ev.succeed("v")
    sim.run()
    assert seen == [ev]
    assert ev.processed


def test_callback_added_after_processing_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    sim.run()
    seen = []
    ev.add_callback(seen.append)
    assert seen == [ev]


def test_timeout_value():
    sim = Simulator()

    def proc(sim):
        got = yield sim.timeout(1.0, value="payload")
        return got

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "payload"


def test_negative_timeout_raises():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_all_of_waits_for_all():
    sim = Simulator()
    t1 = sim.timeout(1.0)
    t2 = sim.timeout(3.0)
    done = []

    def proc(sim):
        yield AllOf(sim, [t1, t2])
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done == [3.0]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    done = []

    def proc(sim):
        yield AllOf(sim, [])
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done == [0.0]


def test_condition_fails_when_subevent_fails():
    sim = Simulator()
    ev = sim.event()
    t = sim.timeout(5.0)
    caught = []

    def proc(sim):
        try:
            yield AllOf(sim, [ev, t])
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(proc(sim))
    sim.call_in(1.0, lambda: ev.fail(ValueError("sub failed")))
    sim.run()
    assert caught == ["sub failed"]


def test_cross_simulator_event_rejected_by_condition():
    sim1 = Simulator()
    sim2 = Simulator()
    t1 = sim1.timeout(1.0)
    t2 = sim2.timeout(1.0)
    with pytest.raises(ValueError):
        AllOf(sim1, [t1, t2])


def test_all_of_fails_fast_while_other_sub_events_still_pend():
    """Fail-fast: one failing sub-event fails the AllOf at once; the
    sub-events still pending fire later at their own deadlines."""
    sim = Simulator()
    ev = sim.event()
    shared = sim.timeout(5.0)
    orphan = sim.timeout(9.0)
    seen = []
    shared.add_callback(seen.append)
    cond = AllOf(sim, [ev, shared, orphan])
    caught = []

    def proc(sim):
        try:
            yield cond
        except ValueError as exc:
            caught.append((sim.now, str(exc)))

    sim.process(proc(sim))
    sim.call_in(1.0, ev.fail, ValueError("sub failed"))
    sim.run(until=2.0)
    assert caught == [(1.0, "sub failed")]
    sim.run()
    assert seen == [shared]
    assert orphan.processed and sim.now == 9.0


def test_interrupted_wait_timeout_pops_as_one_event_without_resuming():
    """A timeout a process stopped waiting on (it was interrupted) still
    pops at its deadline, resumes nobody and counts as one event."""
    sim = Simulator()
    resumed = []

    def sleeper(sim):
        try:
            yield sim.timeout(5.0)
            resumed.append(("timeout", sim.now))
        except Interrupt:
            resumed.append(("interrupt", sim.now))
        yield sim.timeout(10.0)
        resumed.append(("second", sim.now))

    proc = sim.process(sleeper(sim))
    sim.call_in(1.0, proc.interrupt)
    sim.run(until=4.0)
    before = sim.events_processed
    sim.run(until=5.5)
    # Only the t=5 pop and the run's stopper ran in between.
    assert sim.events_processed - before == 2
    assert resumed == [("interrupt", 1.0)]
    sim.run()
    assert resumed == [("interrupt", 1.0), ("second", 11.0)]


def test_cancelled_call_every_pops_its_pending_call_but_never_fires():
    sim = Simulator()
    hits = []
    cancel = sim.call_every(2.0, lambda: hits.append(sim.now))
    sim.run(until=3.0)
    cancel()
    before = sim.events_processed
    sim.run()
    assert hits == [2.0]
    # The call queued for t=4 still pops, and schedules no successor.
    assert sim.events_processed - before == 1
    assert sim.now == 4.0
