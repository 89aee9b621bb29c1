"""Tests for operator placement and replication."""

import pytest

from repro.core.graph import QueryGraph
from repro.core.operator import MapOperator, SinkOperator, SourceOperator
from repro.core.placement import Placement, PlacementError


def pipeline_graph():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    g.add_operator(MapOperator("A", lambda p: p))
    g.add_operator(SinkOperator("K"))
    g.chain("S", "A", "K")
    return g


def test_from_groups():
    p = Placement.from_groups({"n0": ["S"], "n1": ["A", "K"]})
    assert p.replication_factor == 1
    assert p.node_for("S") == "n0"
    assert p.ops_on("n1") == ["A", "K"]
    assert set(p.used_nodes()) == {"n0", "n1"}


def test_from_groups_duplicate_operator():
    with pytest.raises(PlacementError):
        Placement.from_groups({"n0": ["S"], "n1": ["S"]})


def test_empty_placement_rejected():
    with pytest.raises(PlacementError):
        Placement({})


def test_validate_against_graph():
    g = pipeline_graph()
    p = Placement.from_groups({"n0": ["S"], "n1": ["A"], "n2": ["K"]})
    p.validate(g, ["n0", "n1", "n2"])


def test_validate_missing_operator():
    g = pipeline_graph()
    p = Placement.from_groups({"n0": ["S", "A"]})
    with pytest.raises(PlacementError, match="missing"):
        p.validate(g, ["n0"])


def test_validate_unknown_node():
    g = pipeline_graph()
    p = Placement.from_groups({"n0": ["S"], "ghost": ["A", "K"]})
    with pytest.raises(PlacementError, match="unknown node"):
        p.validate(g, ["n0"])


def test_replicate_disjoint_chains():
    nodes = [f"n{i}" for i in range(8)]
    base = Placement.from_groups({"n0": ["S"], "n1": ["A"], "n2": ["K"]})
    rep = base.replicate(nodes, 2)
    assert rep.replication_factor == 2
    # Chain 1 is the ring-shifted copy, disjoint from chain 0.
    chain0 = set(rep.chain_assignment(0).values())
    chain1 = set(rep.chain_assignment(1).values())
    assert chain0 == {"n0", "n1", "n2"}
    assert chain1 == {"n4", "n5", "n6"}
    assert not (chain0 & chain1)


def test_replicate_factor_bounds():
    base = Placement.from_groups({"n0": ["S"]})
    with pytest.raises(PlacementError):
        base.replicate(["n0"], 2)  # factor exceeds node count
    with pytest.raises(PlacementError):
        base.replicate(["n0"], 0)


def test_reassign_node():
    p = Placement.from_groups({"n0": ["S"], "n1": ["A", "K"]})
    p.reassign_node("n1", "n9")
    assert p.node_for("A") == "n9"
    assert p.node_for("K") == "n9"
    assert "n1" not in p.used_nodes()


def test_nodes_for_cannot_change_the_placement():
    p = Placement.from_groups({"n0": ["S"]}).replicate(["n0", "n1"], 2)
    hosts = p.nodes_for("S")
    with pytest.raises(TypeError):
        hosts[0] = "n9"  # type: ignore[index]
    p.reassign_node("n0", "n9")
    assert hosts == ("n0", "n1")  # a held result is a snapshot
    assert p.nodes_for("S") == ("n9", "n1")


def test_reassign_noop_same_node():
    p = Placement.from_groups({"n0": ["S"]})
    p.reassign_node("n0", "n0")
    assert p.node_for("S") == "n0"


def test_reassign_conflict_with_replica():
    base = Placement.from_groups({"n0": ["S"], "n1": ["A"], "n2": ["K"]})
    rep = base.replicate([f"n{i}" for i in range(6)], 2)
    # Moving chain-0's S host onto chain-1's S host would co-locate replicas.
    with pytest.raises(PlacementError):
        rep.reassign_node("n0", "n3")


def test_pack_groups_one_per_phone():
    p = Placement.pack_groups([["S"], ["A"], ["K"]], ["p0", "p1", "p2"])
    assert p.node_for("S") == "p0"
    assert p.node_for("A") == "p1"
    assert p.node_for("K") == "p2"


def test_pack_groups_merges_adjacent_on_fewer_phones():
    p = Placement.pack_groups([["S"], ["A"], ["B"], ["K"]], ["p0", "p1"])
    assert p.node_for("S") == p.node_for("A") == "p0"
    assert p.node_for("B") == p.node_for("K") == "p1"


def test_pack_groups_empty_phones():
    with pytest.raises(PlacementError):
        Placement.pack_groups([["S"]], [])


def test_mixed_replication_factor_rejected():
    with pytest.raises(PlacementError):
        Placement({"S": ["n0"], "A": ["n1", "n2"]})


def test_duplicate_replica_hosts_rejected():
    with pytest.raises(PlacementError):
        Placement({"S": ["n0", "n0"]})
