"""Tests for Resource."""

import pytest

from repro.sim import Resource, Simulator


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.count == 2
    assert res.queue_length == 1


def test_resource_release_grants_waiter():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    assert r1.processed  # granted on the spot
    assert not r2.triggered
    res.release(r1)
    assert r2.triggered and not r2.processed  # granted by a queued event
    sim.run()
    assert r2.processed
    assert res.count == 1 and res.queue_length == 0


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    grants = []

    def user(sim, uid, hold):
        req = res.request()
        yield req
        grants.append((uid, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    for i in range(4):
        sim.process(user(sim, i, 1.0))
    sim.run()
    assert grants == [(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)]


def test_resource_release_waiting_request_cancels_it():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    res.release(r2)  # cancel while queued
    res.release(r1)
    assert not r2.triggered  # was cancelled, never granted
    assert res.count == 0


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_context_manager():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim):
        with res.request() as req:
            yield req
            yield sim.timeout(1.0)
        return res.count

    p = sim.process(user(sim))
    sim.run()
    assert p.value == 0


def test_free_slot_is_granted_without_an_event():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    queued = sim._queued()
    req = res.request()
    assert req.processed and req.ok and req.value is None
    assert sim._queued() == queued
    sim.run()
    assert sim.events_processed == 0
    assert res.count == 1


def test_free_slot_grant_continues_in_the_same_step():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    steps = []

    def user(sim):
        req = res.request()
        before = sim.events_processed
        yield req
        steps.append((sim.now, sim.events_processed - before))
        yield sim.timeout(1.0)
        res.release(req)

    sim.process(user(sim))
    sim.run()
    assert steps == [(0.0, 0)]
    assert sim.events_processed == 3  # init, timeout, process completion


def test_interrupted_holder_of_a_spot_grant_releases_it():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = []

    def holder(sim):
        req = res.request()
        yield req
        try:
            yield sim.timeout(10.0)
        finally:
            res.release(req)

    def waiter(sim):
        req = res.request()
        yield req
        granted.append(sim.now)
        res.release(req)

    proc = sim.process(holder(sim))
    proc.defuse()
    sim.process(waiter(sim))
    sim.call_in(1.0, proc.interrupt)
    sim.run()
    assert granted == [1.0]
    assert res.count == 0


def test_many_spot_grants_in_a_row_do_not_recurse():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim):
        for _ in range(10_000):
            req = res.request()
            yield req
            res.release(req)
        return "done"

    proc = sim.process(user(sim))
    sim.run()
    assert proc.value == "done"
