"""Tests for Resource and Store."""

import pytest

from repro.sim import Resource, Simulator, Store
from repro.sim.resources import FilterStore


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


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")

    def getter(sim):
        item = yield store.get()
        return item

    p = sim.process(getter(sim))
    sim.run()
    assert p.value == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    times = []

    def getter(sim):
        item = yield store.get()
        times.append((sim.now, item))

    sim.process(getter(sim))
    sim.call_in(3.0, lambda: store.put("late"))
    sim.run()
    assert times == [(3.0, "late")]


def test_store_fifo_item_order():
    sim = Simulator()
    store = Store(sim)
    for i in range(5):
        store.put(i)
    got = []

    def getter(sim):
        for _ in range(5):
            got.append((yield store.get()))

    sim.process(getter(sim))
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_capacity_overflow_raises():
    sim = Simulator()
    store = Store(sim, capacity=1)
    store.put(1)
    with pytest.raises(OverflowError):
        store.put(2)


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put("a")
    assert store.try_get() == "a"
    assert store.try_get() is None


def test_store_clear():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert store.clear() == 2
    assert len(store) == 0


def test_store_cancel_getters():
    sim = Simulator()
    store = Store(sim)
    caught = []

    def getter(sim):
        try:
            yield store.get()
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(getter(sim))
    sim.call_in(1.0, lambda: store.cancel_getters(RuntimeError("node died")))
    sim.run()
    assert caught == ["node died"]


def test_filter_store_predicate():
    sim = Simulator()
    store = FilterStore(sim)
    store.put({"kind": "data", "v": 1})
    store.put({"kind": "token", "v": 2})

    def getter(sim):
        item = yield store.get(lambda it: it["kind"] == "token")
        return item["v"]

    p = sim.process(getter(sim))
    sim.run()
    assert p.value == 2
    assert len(store) == 1  # the data item remains


def test_filter_store_waits_for_match():
    sim = Simulator()
    store = FilterStore(sim)
    store.put("no-match")
    got = []

    def getter(sim):
        item = yield store.get(lambda it: it == "match")
        got.append((sim.now, item))

    sim.process(getter(sim))
    sim.call_in(2.0, lambda: store.put("match"))
    sim.run()
    assert got == [(2.0, "match")]
