"""Tests for operator primitives."""

import pytest

from repro.core.operator import (
    MapOperator,
    OperatorContext,
    SinkOperator,
    SourceOperator,
    StatefulOperator,
)
from repro.core.tuples import StreamTuple
from repro.sim import RngRegistry


def ctx():
    return OperatorContext(now=0.0, rng=RngRegistry(0), region_name="r")


def tup(payload=1, size=100):
    return StreamTuple(payload=payload, size=size, entered_at=0.0, source_seq=0)


def test_map_operator_transforms():
    op = MapOperator("M", lambda p: p * 2)
    outs = op.process(tup(21), ctx())
    assert len(outs) == 1
    assert outs[0].payload == 42
    assert outs[0].size == 100  # inherits input size by default


def test_map_operator_fixed_out_size():
    op = MapOperator("M", lambda p: p, out_size=10)
    assert op.process(tup(), ctx())[0].size == 10


def test_map_operator_callable_out_size():
    op = MapOperator("M", lambda p: p, out_size=lambda in_size, out: in_size // 2)
    assert op.process(tup(size=100), ctx())[0].size == 50


def test_map_operator_callable_cost():
    op = MapOperator("M", lambda p: p, cost_s=lambda t: t.size * 0.001)
    assert op.cost(tup(size=100)) == pytest.approx(0.1)


def test_source_and_sink_flags():
    assert SourceOperator("S").is_source
    assert not SourceOperator("S").is_sink
    assert SinkOperator("K").is_sink
    assert not SinkOperator("K").is_source
    assert not MapOperator("M", lambda p: p).is_source


def test_empty_name_rejected():
    with pytest.raises(ValueError):
        MapOperator("", lambda p: p)


def test_stateful_operator_snapshot_restore():
    class Acc(StatefulOperator):
        def process(self, t, ctx):
            self.state["sum"] = self.state.get("sum", 0) + t.payload
            return [t.derive(self.state["sum"], 8)]

    op = Acc("acc", state_size=1024)
    op.process(tup(10), ctx())
    op.process(tup(5), ctx())
    snap = op.snapshot()
    op.process(tup(100), ctx())
    assert op.state["sum"] == 115
    op.restore(snap)
    assert op.state["sum"] == 15
    op.restore(None)
    assert op.state == {}


def test_stateful_state_size():
    class Noop(StatefulOperator):
        def process(self, t, ctx):
            return []

    assert Noop("n", state_size=2048).state_size() == 2048
    with pytest.raises(ValueError):
        Noop("n", state_size=-1)


def test_default_route_is_all_downstream():
    op = MapOperator("M", lambda p: p)
    assert op.route(tup(), ["a", "b"]) == ["a", "b"]


def test_source_passthrough():
    op = SourceOperator("S")
    outs = op.process(tup("data"), ctx())
    assert outs[0].payload == "data"
