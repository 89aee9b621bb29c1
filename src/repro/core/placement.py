"""Placement: mapping operators onto phones, with optional replication.

A placement assigns every operator a list of hosting nodes: entry 0 is the
primary copy (chain 0), entry r is the r-th replica (chain r).  Ordinary
schemes use factor 1; active-standby replication (rep-k, the Flux/Borealis
baseline) uses factor k with *paired dataflows*: replica r of an operator
streams only to replica r of its downstream operators, giving k
independent chains whose outputs are deduplicated at the sink.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.graph import GraphError, QueryGraph


class PlacementError(Exception):
    """Raised for invalid operator-to-node assignments."""


class Placement:
    """Operator -> [node ids] assignment (index = replica/chain)."""

    def __init__(self, assignment: Mapping[str, Sequence[str]]) -> None:
        if not assignment:
            raise PlacementError("empty placement")
        factors = {len(nodes) for nodes in assignment.values()}
        if len(factors) != 1:
            raise PlacementError("all operators must have the same replication factor")
        self.replication_factor = factors.pop()
        if self.replication_factor < 1:
            raise PlacementError("replication factor must be >= 1")
        self._assignment: Dict[str, Tuple[str, ...]] = {
            op: tuple(nodes) for op, nodes in assignment.items()
        }
        for op, nodes in self._assignment.items():
            if len(set(nodes)) != len(nodes):
                raise PlacementError(f"operator {op!r} has duplicate replica hosts")

    # -- queries --------------------------------------------------------------
    def operators(self) -> List[str]:
        """All placed operator names."""
        return list(self._assignment)

    def nodes_for(self, op_name: str) -> Tuple[str, ...]:
        """Hosting node ids for an operator (index = chain)."""
        return self._assignment[op_name]

    def node_for(self, op_name: str, chain: int = 0) -> str:
        """Hosting node of a specific chain of an operator."""
        return self._assignment[op_name][chain]

    def ops_on(self, node_id: str, chain: Optional[int] = None) -> List[str]:
        """Operators hosted on ``node_id`` (optionally only one chain)."""
        out = []
        for op, nodes in self._assignment.items():
            for r, nid in enumerate(nodes):
                if nid == node_id and (chain is None or chain == r):
                    out.append(op)
                    break
        return out

    def used_nodes(self) -> List[str]:
        """All node ids hosting at least one operator copy."""
        seen: Dict[str, None] = {}
        for nodes in self._assignment.values():
            for nid in nodes:
                seen.setdefault(nid)
        return list(seen)

    def chain_assignment(self, chain: int = 0) -> Dict[str, str]:
        """Operator -> node id map for one chain (feeds ``node_graph``)."""
        if not 0 <= chain < self.replication_factor:
            raise PlacementError(f"chain {chain} out of range")
        return {op: nodes[chain] for op, nodes in self._assignment.items()}

    def reassign_node(self, old_node: str, new_node: str) -> None:
        """Move every operator copy from ``old_node`` to ``new_node``.

        Used by recovery/mobility: the replacement phone takes over all of
        the failed/departed phone's operators.
        """
        if old_node == new_node:
            return
        for op, nodes in self._assignment.items():
            if old_node in nodes:
                if new_node in nodes:
                    raise PlacementError(
                        f"cannot move {op!r}: {new_node!r} already hosts a replica"
                    )
                self._assignment[op] = tuple(
                    new_node if nid == old_node else nid for nid in nodes
                )

    def validate(self, graph: QueryGraph, available_nodes: Sequence[str]) -> None:
        """Check coverage and host availability; node-level acyclicity per chain."""
        placed = set(self._assignment)
        ops = set(graph.names())
        if placed != ops:
            missing = ops - placed
            extra = placed - ops
            raise PlacementError(
                f"placement mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        avail = set(available_nodes)
        for op, nodes in self._assignment.items():
            for nid in nodes:
                if nid not in avail:
                    raise PlacementError(f"{op!r} assigned to unknown node {nid!r}")
        for chain in range(self.replication_factor):
            try:
                graph.node_graph(self.chain_assignment(chain))
            except GraphError as exc:
                raise PlacementError(f"chain {chain}: {exc}") from exc

    # -- builders ----------------------------------------------------------
    @classmethod
    def pack_groups(
        cls, ordered_groups: Sequence[Sequence[str]], phone_ids: Sequence[str]
    ) -> "Placement":
        """Pack an ordered list of operator groups onto the given phones.

        With as many phones as groups, each group gets its own phone (the
        paper's 8-phone placements); with fewer phones, *adjacent* groups
        are merged contiguously — the layout rep-k uses to squeeze a whole
        dataflow onto 1/k of the phones.  Adjacent merging keeps the
        node-level graph acyclic for pipeline-shaped applications.
        """
        if not phone_ids:
            raise PlacementError("no phones to place onto")
        n_phones = len(phone_ids)
        n_groups = len(ordered_groups)
        groups: Dict[str, List[str]] = {pid: [] for pid in phone_ids}
        for gi, group in enumerate(ordered_groups):
            pid = phone_ids[gi * n_phones // n_groups] if n_groups >= n_phones else phone_ids[gi]
            groups[pid].extend(group)
        return cls.from_groups({pid: ops for pid, ops in groups.items() if ops})

    @classmethod
    def from_groups(cls, groups: Mapping[str, Sequence[str]]) -> "Placement":
        """Build from ``{node_id: [operator names]}`` (factor 1).

        This mirrors the paper's figures where "operators with the same
        color are on the same node".
        """
        assignment: Dict[str, List[str]] = {}
        for node_id, ops in groups.items():
            for op in ops:
                if op in assignment:
                    raise PlacementError(f"operator {op!r} listed in two groups")
                assignment[op] = [node_id]
        return cls(assignment)

    def replicate(self, all_nodes: Sequence[str], factor: int) -> "Placement":
        """Derive a k-chain placement by shifting hosts around a node ring.

        Chain r of the operators on ring position i is hosted at ring
        position ``(i + r*offset) % len(all_nodes)`` with the offset chosen
        to spread replicas as far from their primaries as possible —
        a failure should never take out two chains of the same operator.
        """
        if factor < 1:
            raise PlacementError("factor must be >= 1")
        ring = list(all_nodes)
        n = len(ring)
        if factor > n:
            raise PlacementError(f"factor {factor} exceeds node count {n}")
        index = {nid: i for i, nid in enumerate(ring)}
        offset = max(1, n // factor)
        assignment: Dict[str, List[str]] = {}
        for op, nodes in self._assignment.items():
            base = nodes[0]
            if base not in index:
                raise PlacementError(f"{base!r} not in the node ring")
            i = index[base]
            assignment[op] = [ring[(i + r * offset) % n] for r in range(factor)]
        return Placement(assignment)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Placement ops={len(self._assignment)} "
            f"factor={self.replication_factor} nodes={len(self.used_nodes())}>"
        )
