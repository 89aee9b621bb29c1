"""Tests for event primitives: trigger semantics, AllOf."""

import pytest

from repro.sim import Simulator
from repro.sim.events import AllOf


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


def test_all_of_failure_detaches_and_cancels_orphaned_timeout():
    """Fail-fast: one failing sub-event fails the AllOf at once; the
    AllOf then stops listening to the sub-events still pending, and a
    timeout nothing else listens to is cancelled (one more dead entry)."""
    sim = Simulator()
    ev = sim.event()
    shared = sim.timeout(5.0)
    orphan = sim.timeout(9.0)
    seen = []
    shared.add_callback(seen.append)  # keeps ``shared`` live
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
    assert shared.callbacks == [seen.append]
    assert orphan.callbacks is None
    assert sim.dead_entries == 1
    sim.run()
    assert seen == [shared]
    assert sim.dead_entries == 0
