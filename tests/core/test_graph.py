"""Tests for the query network DAG."""

import pytest

from repro.core.graph import GraphError, QueryGraph
from repro.core.operator import MapOperator, SinkOperator, SourceOperator


def diamond():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    g.add_operator(MapOperator("A", lambda p: p))
    g.add_operator(MapOperator("B", lambda p: p))
    g.add_operator(SinkOperator("K"))
    g.connect("S", "A").connect("S", "B").connect("A", "K").connect("B", "K")
    return g


def test_valid_diamond():
    g = diamond()
    g.validate()
    assert len(g) == 4
    assert g.source_names() == ["S"]
    assert g.sink_names() == ["K"]
    assert set(g.upstream_of("K")) == {"A", "B"}
    assert set(g.downstream_of("S")) == {"A", "B"}


def test_duplicate_name_rejected():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    with pytest.raises(GraphError):
        g.add_operator(SourceOperator("S"))


def test_unknown_operator_in_connect():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    with pytest.raises(GraphError):
        g.connect("S", "missing")


def test_self_loop_rejected():
    g = QueryGraph()
    g.add_operator(MapOperator("A", lambda p: p))
    with pytest.raises(GraphError):
        g.connect("A", "A")


def test_cycle_rejected():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    g.add_operator(MapOperator("A", lambda p: p))
    g.add_operator(MapOperator("B", lambda p: p))
    g.add_operator(SinkOperator("K"))
    g.chain("S", "A", "B", "K")
    g.connect("B", "A")
    with pytest.raises(GraphError, match="cycle"):
        g.validate()


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        QueryGraph().validate()


def test_no_source_rejected():
    g = QueryGraph()
    g.add_operator(MapOperator("A", lambda p: p))
    g.add_operator(SinkOperator("K"))
    g.connect("A", "K")
    with pytest.raises(GraphError, match="source"):
        g.validate()


def test_source_with_upstream_rejected():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    g.add_operator(SourceOperator("S2"))
    g.add_operator(SinkOperator("K"))
    g.connect("S", "S2")
    g.connect("S2", "K")
    with pytest.raises(GraphError, match="upstream"):
        g.validate()


def test_unreachable_operator_rejected():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    g.add_operator(SinkOperator("K"))
    g.add_operator(MapOperator("orphan", lambda p: p))
    g.add_operator(SinkOperator("K2"))
    g.connect("S", "K")
    g.connect("orphan", "K2")
    with pytest.raises(GraphError, match="unreachable"):
        g.validate()


def test_dangling_operator_rejected():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    g.add_operator(MapOperator("A", lambda p: p))
    g.add_operator(SinkOperator("K"))
    g.connect("S", "K")
    g.connect("S", "A")  # A reaches no sink
    with pytest.raises(GraphError, match="sink"):
        g.validate()


def test_topological_order():
    g = diamond()
    order = g.topological_order()
    assert order.index("S") < order.index("A") < order.index("K")
    assert order.index("S") < order.index("B") < order.index("K")


def test_node_graph_collapse():
    g = diamond()
    ng = g.node_graph({"S": "n0", "A": "n1", "B": "n1", "K": "n2"})
    assert ng.nodes == ["n0", "n1", "n2"]
    assert ng.edges == [("n0", "n1"), ("n1", "n2")]
    assert ng.predecessors("n1") == ["n0"] and ng.successors("n1") == ["n2"]
    assert ng.in_degree("n0") == 0 and ng.in_degree("n2") == 1
    assert "n1" in ng and "n9" not in ng


def test_node_graph_cycle_rejected():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    g.add_operator(MapOperator("A", lambda p: p))
    g.add_operator(MapOperator("B", lambda p: p))
    g.add_operator(SinkOperator("K"))
    g.chain("S", "A", "B", "K")
    # A on n1, B on n2, but K back on n1 with S->A: n1->n2->n1 cycle.
    with pytest.raises(GraphError, match="cycle"):
        g.node_graph({"S": "n0", "A": "n1", "B": "n2", "K": "n1"})


def test_node_graph_missing_assignment():
    g = diamond()
    with pytest.raises(GraphError):
        g.node_graph({"S": "n0"})


def test_contains_and_names():
    g = diamond()
    assert "A" in g
    assert "missing" not in g
    assert g.names() == ["S", "A", "B", "K"]


# -- orders are part of the contract ---------------------------------------------
# Placements, token waves and heartbeat probes iterate these lists, so their
# order decides simulated results.  The values are what the third-party
# DiGraph this module used to wrap produced for the same graphs:
# Kahn's algorithm generation by generation, everything else in insertion
# order.
def test_diamond_orders_are_pinned():
    g = diamond()
    assert g.topological_order() == ["S", "A", "B", "K"]
    assert g.edges() == [("S", "A"), ("S", "B"), ("A", "K"), ("B", "K")]
    ng = g.node_graph({"S": "n0", "A": "n1", "B": "n2", "K": "n3"})
    assert ng.edges == [("n0", "n1"), ("n0", "n2"), ("n1", "n3"), ("n2", "n3")]


def test_topological_order_is_by_generation_not_depth_first():
    """A long arm and a short arm: the short arm's tail waits for its
    generation instead of being emitted as soon as it is free."""
    g = QueryGraph()
    for name in ("S", "A1", "B", "A2", "K"):
        g.add_operator(MapOperator(name, lambda p: p))
    g.chain("S", "A1", "A2", "K").chain("S", "B", "K")
    assert g.topological_order() == ["S", "A1", "B", "A2", "K"]


def test_topological_order_rejects_a_cycle():
    g = QueryGraph()
    for name in ("A", "B"):
        g.add_operator(MapOperator(name, lambda p: p))
    g.connect("A", "B").connect("B", "A")
    with pytest.raises(GraphError, match="cycle"):
        g.topological_order()


PINNED_APP_ORDERS = {
    "bcp": (
        ["S0", "S1", "N", "H", "A", "L", "D", "C0", "C1", "C2", "C3", "B",
         "J", "P", "K"],
        ["p0", "p6", "p1", "p2", "p3", "p4", "p5", "p7"],
        [("p0", "p6"), ("p6", "p7"), ("p1", "p2"), ("p1", "p3"), ("p1", "p4"),
         ("p1", "p5"), ("p2", "p6"), ("p3", "p6"), ("p4", "p6"), ("p5", "p6")],
    ),
    "signalguru": (
        ["S0", "S1", "C0", "C1", "C2", "A0", "A1", "A2", "M0", "M1", "M2",
         "V", "G", "P", "K"],
        ["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"],
        [("p0", "p6"), ("p1", "p2"), ("p1", "p3"), ("p1", "p4"), ("p2", "p5"),
         ("p3", "p5"), ("p4", "p5"), ("p5", "p6"), ("p6", "p7")],
    ),
}


@pytest.mark.parametrize("app_key", sorted(PINNED_APP_ORDERS))
def test_app_graph_orders_are_pinned(app_key):
    from repro.apps.registry import get_app

    topo, nodes, edges = PINNED_APP_ORDERS[app_key]
    app = get_app(app_key).create()
    graph = app.build_graph()
    phones = [f"p{i}" for i in range(app.compute_phones_needed())]
    ng = graph.node_graph(app.build_placement(phones).chain_assignment(0))
    assert graph.topological_order() == topo
    assert ng.nodes == nodes
    assert ng.edges == edges
