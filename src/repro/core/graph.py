"""The query network: a DAG of operators (Section II-A, Fig. 1a).

Two insertion-ordered adjacency maps, nothing else: every order this
module hands out (edges, topological order, node-graph neighbours) is a
function of the order operators and streams were added, which is what
keeps placements — and so whole runs — reproducible.  The graph also
derives the *high-level* query network between nodes (Fig. 1b) once a
placement maps operators to phones — the token protocol, failure
monitoring, and stream routing all operate at node granularity ("a group
of operators on a node can be treated as a single super operator").
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.operator import Operator

#: node -> its neighbours in insertion order (a dict used as an ordered set).
Adjacency = Dict[Hashable, Dict[Hashable, None]]


class GraphError(Exception):
    """Raised for malformed query networks."""


def _kahn_order(succ: Adjacency, pred: Adjacency) -> Optional[List[Hashable]]:
    """Topological order, generation by generation (roots in insertion
    order, then whatever they release, in edge order); None on a cycle."""
    waiting = {n: len(ups) for n, ups in pred.items() if ups}
    order = [n for n in succ if n not in waiting]
    for node in order:  # grows while we walk it
        for child in succ[node]:
            waiting[child] -= 1
            if not waiting[child]:
                del waiting[child]
                order.append(child)
    return None if waiting else order


def _closure(adj: Adjacency, roots: Iterable[Hashable]) -> Set[Hashable]:
    """``roots`` plus everything reachable from them along ``adj``."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


class NodeGraph:
    """The node-level query network of one placement (Fig. 1b)."""

    def __init__(
        self, nodes: Iterable[Hashable], edges: Iterable[Tuple[Hashable, Hashable]]
    ) -> None:
        self._succ: Adjacency = {n: {} for n in nodes}
        self._pred: Adjacency = {n: {} for n in self._succ}
        for u, v in edges:
            self._succ[u][v] = None
            self._pred[v][u] = None

    @property
    def nodes(self) -> List[Hashable]:
        """Node ids, in the order their first operator was added."""
        return list(self._succ)

    @property
    def edges(self) -> List[Tuple[Hashable, Hashable]]:
        """All (upstream node, downstream node) streams."""
        return [(u, v) for u, vs in self._succ.items() for v in vs]

    def predecessors(self, node: Hashable) -> List[Hashable]:
        return list(self._pred[node])

    def successors(self, node: Hashable) -> List[Hashable]:
        return list(self._succ[node])

    def in_degree(self, node: Hashable) -> int:
        return len(self._pred[node])

    def __contains__(self, node: Hashable) -> bool:
        return node in self._succ


class QueryGraph:
    """A directed acyclic graph of named operators."""

    def __init__(self) -> None:
        self._succ: Adjacency = {}
        self._pred: Adjacency = {}
        self._operators: Dict[str, Operator] = {}

    # -- construction ------------------------------------------------------
    def add_operator(self, op: Operator) -> "QueryGraph":
        """Add an operator (name must be unique). Returns self for chaining."""
        if op.name in self._operators:
            raise GraphError(f"duplicate operator name {op.name!r}")
        self._operators[op.name] = op
        self._succ[op.name] = {}
        self._pred[op.name] = {}
        return self

    def connect(self, upstream: str, downstream: str) -> "QueryGraph":
        """Add a stream from ``upstream`` to ``downstream``."""
        for name in (upstream, downstream):
            if name not in self._operators:
                raise GraphError(f"unknown operator {name!r}")
        if upstream == downstream:
            raise GraphError("self-loops are not allowed")
        self._succ[upstream][downstream] = None
        self._pred[downstream][upstream] = None
        return self

    def chain(self, *names: str) -> "QueryGraph":
        """Connect a linear pipeline ``names[0] -> names[1] -> ...``."""
        for a, b in zip(names, names[1:]):
            self.connect(a, b)
        return self

    # -- validation ----------------------------------------------------------
    def validate(self) -> None:
        """Check the structural invariants of a query network.

        * acyclic,
        * at least one source and one sink operator,
        * source operators have no upstream edges; sinks no downstream,
        * every operator reachable from some source,
        * every operator reaches some sink.
        """
        if not self._operators:
            raise GraphError("empty query network")
        if _kahn_order(self._succ, self._pred) is None:
            raise GraphError("query network contains a cycle")
        sources = self.source_names()
        sinks = self.sink_names()
        if not sources:
            raise GraphError("query network has no source operator")
        if not sinks:
            raise GraphError("query network has no sink operator")
        for s in sources:
            if self.upstream_of(s):
                raise GraphError(f"source {s!r} has upstream edges")
        for s in sinks:
            if self.downstream_of(s):
                raise GraphError(f"sink {s!r} has downstream edges")
        reachable = _closure(self._succ, sources)
        if reachable != set(self._operators):
            missing = set(self._operators) - reachable
            raise GraphError(f"operators unreachable from sources: {sorted(missing)}")
        reaches_sink = _closure(self._pred, sinks)
        if reaches_sink != set(self._operators):
            dangling = set(self._operators) - reaches_sink
            raise GraphError(f"operators that reach no sink: {sorted(dangling)}")

    # -- queries --------------------------------------------------------------
    def operator(self, name: str) -> Operator:
        """The operator object called ``name``."""
        return self._operators[name]

    def operators(self) -> List[Operator]:
        """All operators, in insertion order."""
        return list(self._operators.values())

    def names(self) -> List[str]:
        """All operator names, in insertion order."""
        return list(self._operators)

    def __contains__(self, name: str) -> bool:
        return name in self._operators

    def __len__(self) -> int:
        return len(self._operators)

    def upstream_of(self, name: str) -> List[str]:
        """Direct upstream operator names."""
        return list(self._pred[name])

    def downstream_of(self, name: str) -> List[str]:
        """Direct downstream operator names."""
        return list(self._succ[name])

    def edges(self) -> List[Tuple[str, str]]:
        """All (upstream, downstream) operator pairs."""
        return [(u, v) for u, vs in self._succ.items() for v in vs]

    def source_names(self) -> List[str]:
        """Operators flagged as sources."""
        return [n for n, op in self._operators.items() if op.is_source]

    def sink_names(self) -> List[str]:
        """Operators flagged as sinks."""
        return [n for n, op in self._operators.items() if op.is_sink]

    def topological_order(self) -> List[str]:
        """Operator names in topological order: Kahn's algorithm by
        generation, ties in insertion order.  Raises on a cycle."""
        order = _kahn_order(self._succ, self._pred)
        if order is None:
            raise GraphError("query network contains a cycle")
        return order

    # -- node-level derivation (Fig. 1b) --------------------------------------
    def node_graph(self, assignment: Dict[str, str]) -> NodeGraph:
        """Collapse the operator DAG onto nodes via ``assignment``.

        ``assignment`` maps operator name -> node id.  Edges between
        operators on the same node vanish (intra-node data pass); edges
        between different nodes become node-level streams.  Raises
        :class:`GraphError` if the collapsed graph has a cycle (a
        placement must not create node-level cycles, or the token protocol
        would deadlock).
        """
        for op_name in self._operators:
            if op_name not in assignment:
                raise GraphError(f"operator {op_name!r} has no node assignment")
        ng = NodeGraph(
            (assignment[op_name] for op_name in self._operators),
            ((assignment[u], assignment[v]) for u, v in self.edges()
             if assignment[u] != assignment[v]),
        )
        if _kahn_order(ng._succ, ng._pred) is None:
            raise GraphError("placement induces a cycle between nodes")
        return ng

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<QueryGraph ops={len(self._operators)} edges={len(self.edges())}>"
