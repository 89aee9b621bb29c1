"""Shared machinery for the *uncoordinated* checkpoint baselines.

``local`` and ``dist-n`` (Section IV-B schemes 3-4) follow the classic
server-DSPS recipe (Section IV-B): "every node periodically checkpoints
operators' running state [...] and every operator retains its output
tuples until these tuples have been checkpointed by the downstream
operators.  This is called input preservation."

The pieces here:

* a per-node periodic checkpoint driver (staggered round-robin),
* output-retention buffers per operator edge, trimmed by checkpoint acks,
* replay of retained tuples into a restored node (upstream backup),
* exactly-once downstream semantics via the runtime's emit-key dedup.

Subclasses choose *where* checkpoints are stored (local flash vs. n remote
nodes) and *how* a failed node is brought back.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.baselines.interface import FaultToleranceScheme
from repro.net.packet import Message
from repro.net.wifi import Unreachable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import NodeRuntime
    from repro.core.tuples import StreamTuple

#: Wire size of a checkpoint-ack control message.
ACK_SIZE = 64

#: Pseudo-upstream edge key for sensor input retained at sources.
SENSOR = "__sensor__"


class PeriodicCheckpointScheme(FaultToleranceScheme):
    """Base class: per-node periodic checkpoints + input preservation."""

    #: Uncoordinated checkpoints bound the loss to one period of input;
    #: the emit-key dedup keeps replays duplication-free at the sinks.
    delivery_contract = "bounded-loss"

    def __init__(self, period_s: float = 300.0) -> None:
        super().__init__()
        if period_s <= 0:
            raise ValueError("checkpoint period must be positive")
        self.period_s = period_s
        #: (from_op, to_op) -> retained tuples not yet covered downstream.
        self.buffers: Dict[Tuple[str, str], Deque["StreamTuple"]] = {}
        #: (from_op, to_op) -> tuples processed by the downstream node.
        self.processed: Dict[Tuple[str, str], int] = {}
        #: (from_op, to_op) -> tuples already trimmed from the buffer head.
        self.trimmed: Dict[Tuple[str, str], int] = {}
        #: op-set key -> (version, state snapshot, size, edge cuts).
        self.mrc: Dict[frozenset, Tuple[int, Dict, int, Dict]] = {}
        self._version = 0
        #: node ids with a checkpoint currently in flight (no overlap).
        self._in_flight: set = set()

    # -- lifecycle ----------------------------------------------------------
    def attach(self, region) -> None:
        super().attach(region)
        self.sim.process(self._driver(), name=f"{region.name}.{self.name}.ckpt").defuse()

    def _driver(self):
        """Checkpoint every node once per period, staggered round-robin.

        Each node's save runs in its own process so a slow save (e.g. a
        dist-n unicast of a multi-MB state over 1-5 Mbps WiFi) delays
        only that node, not the period cadence of every node after it.
        A per-node in-flight guard prevents overlapping saves of the
        same node when a save outlasts the period.
        """
        region = self.region
        while not region.stopped:
            node_ids = sorted(set(region.placement.used_nodes()))
            slot = self.period_s / max(1, len(node_ids))
            for nid in node_ids:
                yield self.sim.timeout(slot)
                if region.stopped:
                    return
                if region.paused:
                    continue
                node = region.nodes.get(nid)
                if node is None or not node.alive or nid in self._in_flight:
                    continue
                self._in_flight.add(nid)
                self.sim.process(
                    self._checkpoint_guarded(node),
                    name=f"{region.name}.{self.name}.ckpt.{nid}",
                ).defuse()

    def _checkpoint_guarded(self, node: "NodeRuntime"):
        try:
            yield from self._checkpoint_node(node)
        finally:
            self._in_flight.discard(node.id)

    # -- checkpointing ---------------------------------------------------------
    def _retained_output_bytes(self, node: "NodeRuntime") -> int:
        """Bytes of this node's retained (unacked) output tuples.

        Prior schemes checkpoint these *along with* the operator state —
        the "redundant data saving" that MobiStreams' tokens eliminate
        ("no tuple will be saved twice or missed", Section III-B): a
        token-cut checkpoint never needs in-flight tuples because the
        sources replay instead.
        """
        total = 0
        for op_name in node.op_names:
            for d_op in self.region.graph.downstream_of(op_name):
                buf = self.buffers.get((op_name, d_op))
                if buf:
                    total += sum(t.size for t in buf)
            if self.region.graph.operator(op_name).is_source:
                buf = self.buffers.get((SENSOR, op_name))
                if buf:
                    total += sum(t.size for t in buf)
        return total

    def _checkpoint_node(self, node: "NodeRuntime"):
        """Snapshot one node and store it (storage policy in subclass).

        The save is *synchronous*: the node holds its CPU for the whole
        serialize+store, pausing tuple processing — unlike MobiStreams'
        explicitly asynchronous background save (Section III-B:
        "the node spawns a separate thread for checkpointing").
        """
        self._version += 1
        version = self._version
        snapshot = node.snapshot_state()
        state_size = max(1, node.state_size())
        buffer_bytes = self._retained_output_bytes(node)
        cfg = self.region.config
        # Serialize state + retained tuples, spill the tuples to flash,
        # all while holding the CPU — the whole save is on the node's
        # critical path.
        pause = node.phone.compute_time(
            (state_size + buffer_bytes) * 8.0 / cfg.serialize_bps
        ) + buffer_bytes * 8.0 / cfg.flash_write_bps
        req = node.cpu.request()
        yield req
        try:
            yield self.sim.timeout(pause)
            cuts = self._current_cuts(node)
            # Only the operator state travels to the checkpoint store(s);
            # retained tuples stay local.
            stored = yield from self._store_checkpoint(node, version, snapshot, state_size)
        finally:
            node.cpu.release(req)
        size = state_size
        if not stored:
            return
        key = frozenset(node.op_names)
        self.mrc[key] = (version, snapshot, size, cuts)
        self.trace.count("ckpt.saved_bytes", size)
        self.trace.record(
            self.sim.now, "node_checkpoint", region=self.region.name,
            node=node.id, scheme=self.name, version=version, size=size,
        )
        self.trace.count("ckpt.completed")
        yield from self._send_acks(node, cuts)

    def _store_checkpoint(self, node: "NodeRuntime", version: int, snapshot: Dict, size: int):
        """Persist the snapshot; return True on success.  Subclass hook."""
        raise NotImplementedError
        yield  # pragma: no cover

    def _current_cuts(self, node: "NodeRuntime") -> Dict[Tuple[str, str], int]:
        """Per-input-edge processed positions covered by this snapshot."""
        cuts: Dict[Tuple[str, str], int] = {}
        for op_name in node.op_names:
            for edge in self._input_edges(op_name):
                cuts[edge] = self.processed.get(edge, 0)
        return cuts

    def _input_edges(self, op_name: str) -> List[Tuple[str, str]]:
        edges = [(u, op_name) for u in self.region.graph.upstream_of(op_name)]
        if self.region.graph.operator(op_name).is_source:
            edges.append((SENSOR, op_name))
        return edges

    def _send_acks(self, node: "NodeRuntime", cuts: Dict[Tuple[str, str], int]):
        """Tell upstream nodes their retained outputs are now covered."""
        acked_nodes = set()
        for (from_op, to_op), cut in cuts.items():
            self._trim(from_op, to_op, cut)
            if from_op == SENSOR:
                continue
            up_node = self.region.placement.node_for(from_op, 0)
            if up_node != node.id and up_node not in acked_nodes:
                acked_nodes.add(up_node)
                msg = Message(
                    src=node.id, dst=up_node, size=ACK_SIZE,
                    kind="control", payload=("ckpt_ack", node.id),
                )
                self.count_ft_network(ACK_SIZE)
                try:
                    yield from self.region.wifi.tcp_unicast(msg)
                except Unreachable:
                    pass

    def _trim(self, from_op: str, to_op: str, cut: int) -> None:
        """Drop retained tuples up to the downstream's covered position."""
        edge = (from_op, to_op)
        buf = self.buffers.get(edge)
        if buf is None:
            return
        already = self.trimmed.get(edge, 0)
        drop = max(0, cut - already)
        for _ in range(min(drop, len(buf))):
            buf.popleft()
        self.trimmed[edge] = already + drop

    # -- dataflow hooks ---------------------------------------------------------
    def on_source_ingest(self, node: "NodeRuntime", op_name: str, tup: "StreamTuple") -> None:
        """Sources retain their input until their own checkpoint covers it."""
        edge = (SENSOR, op_name)
        self.buffers.setdefault(edge, deque()).append(tup)
        self.count_preserved(tup.size)
        self.processed[edge] = self.processed.get(edge, 0) + 1

    def on_emit(self, node: "NodeRuntime", from_op: str, to_op: str,
                tup: "StreamTuple", remote: bool) -> None:
        """Input preservation: retain every emitted tuple until acked.

        *Every* operator retains its outputs (Section IV-B's definition),
        including co-located ones — that's the Fig. 10a volume.  Only
        cross-node edges need replay buffers, though: intra-node tuples
        fall inside the node's own checkpoint cut.
        """
        self.count_preserved(tup.size)
        if not remote:
            return
        edge = (from_op, to_op)
        self.buffers.setdefault(edge, deque()).append(tup)

    def on_processed(self, node: "NodeRuntime", op_name: str, tup: "StreamTuple") -> None:
        if tup.emit_key is not None:  # emitted by an operator of this graph
            edge = (tup.emit_key[0], op_name)
            self.processed[edge] = self.processed.get(edge, 0) + 1

    # -- replay ------------------------------------------------------------------
    def _replay_into(self, node: "NodeRuntime"):
        """Resend retained tuples feeding the restored node's operators.

        The restored node reprocesses them from its MRC state; downstream
        nodes drop the regenerated duplicates by emit key.
        """
        region = self.region
        for op_name in node.op_names:
            for from_op, to_op in self._input_edges(op_name):
                buf = self.buffers.get((from_op, to_op))
                if not buf:
                    continue
                replayed = list(buf)
                self.trace.record(
                    self.sim.now, "replay", region=region.name, node=node.id,
                    edge=(from_op, to_op), tuples=len(replayed),
                )
                if from_op == SENSOR:
                    for tup in replayed:
                        node.deliver(Message(
                            src=SENSOR, dst=node.id, size=tup.size,
                            kind="tuple", payload=("source_copy", to_op, tup),
                        ))
                else:
                    up_id = region.placement.node_for(from_op, 0)
                    up_node = region.nodes.get(up_id)
                    if up_node is None or not up_node.alive:
                        continue
                    for tup in replayed:
                        # Retransmission occupies the WiFi like any tuple.
                        region.route_tuple(up_node, to_op, tup)
        yield self.sim.timeout(0)

    def mrc_for_phone(self, phone_id: str) -> Optional[Tuple[int, Dict, int, Dict]]:
        """The MRC record covering the operators hosted on ``phone_id``."""
        key = frozenset(self.region.placement.ops_on(phone_id))
        return self.mrc.get(key)
