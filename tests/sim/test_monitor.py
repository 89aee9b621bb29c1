"""Tests for the trace/counter monitor."""

import pytest

from repro.sim import Trace
from repro.sim.monitor import TraceRecord


def test_record_and_select():
    tr = Trace()
    tr.record(1.0, "tuple_done", latency=0.5)
    tr.record(2.0, "tuple_done", latency=0.7)
    tr.record(3.0, "failure", node="B")
    recs = list(tr.select("tuple_done"))
    assert len(recs) == 2
    assert recs[0].data["latency"] == 0.5


def test_select_time_window():
    tr = Trace()
    for t in range(10):
        tr.record(float(t), "tick")
    assert tr.count_of("tick", since=3.0, until=7.0) == 4


def test_last():
    tr = Trace()
    assert tr.last("x") is None
    tr.record(1.0, "x", v=1)
    tr.record(2.0, "x", v=2)
    assert tr.last("x").data["v"] == 2


def test_counters():
    tr = Trace()
    tr.count("bytes", 100)
    tr.count("bytes", 50)
    assert tr.value("bytes") == 150
    assert tr.value("missing") == 0.0
    assert tr.value("missing", default=-1) == -1


def test_counter_negative_raises():
    tr = Trace()
    with pytest.raises(ValueError):
        tr.count("x", -1)


def test_select_uses_category_index_with_time_window():
    tr = Trace()
    for i in range(100):
        tr.record(float(i), "a" if i % 2 == 0 else "b", i=i)
    got = [r.data["i"] for r in tr.select("a", since=10.0, until=20.0)]
    assert got == [10, 12, 14, 16, 18]
    assert tr.count_of("a", since=10.0, until=20.0) == 5
    assert tr.count_of("b") == 50
    assert tr.count_of("missing") == 0


def test_out_of_order_records_still_select_correctly():
    """Virtual time is monotone in practice, but the index must fall
    back to a scan if a caller ever records out of order."""
    tr = Trace()
    tr.record(5.0, "x", i=0)
    tr.record(2.0, "x", i=1)  # out of order
    tr.record(7.0, "x", i=2)
    assert [r.data["i"] for r in tr.select("x", since=3.0)] == [0, 2]
    assert tr.count_of("x", since=3.0) == 2
    assert tr.last("x").data["i"] == 2


def test_trace_record_slots_and_equality():
    r1 = TraceRecord(1.0, "x", {"k": 1})
    r2 = TraceRecord(1.0, "x", {"k": 1})
    assert r1 == r2
    assert not hasattr(r1, "__dict__")
    with pytest.raises(AttributeError):
        r1.extra = 1


def test_last_follows_insertion_order():
    tr = Trace()
    tr.record(1.0, "x", i=0)
    tr.record(1.0, "x", i=1)
    assert tr.last("x").data["i"] == 1
    assert tr.last("missing") is None


def test_count_of_rejects_unknown_window_kwargs():
    tr = Trace()
    tr.record(1.0, "x")
    with pytest.raises(TypeError, match="sinse"):
        tr.count_of("x", sinse=0.5)


def test_out_of_order_flip_warns_once_per_category(caplog):
    """The first out-of-order record in a category logs one warning
    (windowed queries on it degrade to linear scans); later ones and
    other still-sorted categories stay quiet."""
    tr = Trace()
    tr.record(5.0, "x")
    tr.record(6.0, "y")
    with caplog.at_level("WARNING", logger="repro"):
        tr.record(2.0, "x", i=1)  # flips x to unsorted: warns
        tr.record(1.0, "x", i=2)  # already unsorted: silent
        tr.record(7.0, "y")       # y still sorted: silent
    warnings = [r for r in caplog.records if "out-of-order" in r.message]
    assert len(warnings) == 1
    assert "'x'" in warnings[0].message
    assert "linear scan" in warnings[0].message


def test_linear_scan_window_and_count_match_sorted_path():
    """The unsorted fallback must answer windowed select/count exactly
    like the bisect path does over the same (sorted) record set."""
    times = [0.0, 1.5, 3.0, 4.5, 6.0, 7.5, 9.0]
    sorted_tr, scan_tr = Trace(), Trace()
    for t in times:
        sorted_tr.record(t, "x", t=t)
    # Same records, but one early-time insertion at the end flips the
    # category's index to linear-scan mode.
    for t in times[1:]:
        scan_tr.record(t, "x", t=t)
    scan_tr.record(times[0], "x", t=times[0])
    for since, until in ((None, None), (1.5, 6.0), (2.0, 2.1), (9.0, None),
                        (None, 0.0), (10.0, None)):
        kwargs = {}
        if since is not None:
            kwargs["since"] = since
        if until is not None:
            kwargs["until"] = until
        want = sorted({r.data["t"] for r in sorted_tr.select("x", **kwargs)})
        got = sorted({r.data["t"] for r in scan_tr.select("x", **kwargs)})
        assert got == want, (since, until)
        assert scan_tr.count_of("x", **kwargs) == \
            sorted_tr.count_of("x", **kwargs), (since, until)


def test_observer_sees_every_record_in_order():
    tr = Trace()
    seen = []
    tr.add_observer(seen.append)
    tr.record(1.0, "a", i=0)
    tr.record(2.0, "b", i=1)
    assert [(r.time, r.category) for r in seen] == [(1.0, "a"), (2.0, "b")]


def test_observer_remove_and_duplicate_registration():
    tr = Trace()
    seen = []
    tr.add_observer(seen.append)
    with pytest.raises(ValueError):
        tr.add_observer(seen.append)
    tr.remove_observer(seen.append)
    tr.remove_observer(seen.append)  # unknown: ignored
    tr.record(1.0, "a")
    assert seen == []


def test_scoped_observer_sees_only_its_categories():
    tr = Trace()
    scoped, everything = [], []
    tr.add_observer(scoped.append, categories=["a", "c"])
    tr.add_observer(everything.append)
    tr.record(1.0, "a")
    tr.record(2.0, "b")
    tr.record(3.0, "c")
    tr.record(4.0, "a")
    assert [r.category for r in scoped] == ["a", "c", "a"]
    assert [r.category for r in everything] == ["a", "b", "c", "a"]


def test_scoped_observer_removal_cleans_every_category():
    tr = Trace()
    seen = []
    tr.add_observer(seen.append, categories=["a", "b"])
    with pytest.raises(ValueError):  # same fn, even with new categories
        tr.add_observer(seen.append, categories=["c"])
    tr.remove_observer(seen.append)
    tr.record(1.0, "a")
    tr.record(2.0, "b")
    assert seen == []
    assert tr._scoped == {}
    # Re-registration after removal works.
    tr.add_observer(seen.append, categories=["b"])
    tr.record(3.0, "b")
    assert [r.time for r in seen] == [3.0]
