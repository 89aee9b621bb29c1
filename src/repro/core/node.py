"""Per-phone node runtime: channels, CPU scheduling, token blocking.

One :class:`NodeRuntime` runs on each phone that hosts operators.  It owns:

* **Input channels** — one FIFO per upstream node, created lazily on the
  first message from that node.  Channels can be *blocked* by the token
  protocol: "Node E stops processing tuples from node C [whose token
  arrived], which guarantees that the state of node E is not corrupted by
  any tuple succeeding the token.  Node E can still process tuples from
  node D" (Section III-B, Fig. 5).
* **CPU** — a :class:`~repro.sim.resources.Resource` with one slot per
  core; operator costs are reference-seconds scaled by the phone's speed.
  A free core is granted inside ``request()``, so an uncontended
  operator call costs one timeout event.  The CPU is a resource rather
  than a precomputed busy-until time because the baselines' synchronous
  checkpoint saves hold it across network transfers of unknown length.
* **Hosted operators** — possibly several ("a group of operators on a
  node can be treated as a single super operator"); intra-node edges pass
  tuples directly, cross-node edges go through the region router.
* **Deduplication** — under replication (rep-k chains) a node drops
  logical duplicates by emit key.

The runtime is intentionally mechanism-only: all fault-tolerance *policy*
(what to preserve, when to checkpoint, how to recover) lives in the
scheme attached to the region.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Set, Tuple

from repro.core.operator import Operator
from repro.core.tuples import StreamTuple
from repro.device.failures import PhoneFailure
from repro.net.packet import Message
from repro.sim.events import Event
from repro.sim.process import Interrupt
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.region import Region
    from repro.device.phone import Phone

#: Pseudo-channel for traffic outside the token protocol (inter-region
#: input, source copies); never blocked by tokens.
EXTERNAL_CHANNEL = "__external__"


class NodeRuntime:
    """The DSPS runtime on one phone."""

    def __init__(
        self,
        region: "Region",
        phone: "Phone",
        ops: List[Tuple[Operator, int]],
    ) -> None:
        self.region = region
        self.sim = region.sim
        self.phone = phone
        self.id = phone.id
        #: op name -> operator instance (each chain has its own instances;
        #: replicas of one operator never share a phone, so names are
        #: unique within a node).
        self.ops: Dict[str, Operator] = {op.name: op for op, _chain in ops}
        #: op name -> which replication chain this instance belongs to.
        self.op_chain: Dict[str, int] = {op.name: chain for op, chain in ops}
        self.cpu = Resource(self.sim, capacity=phone.config.cores)
        self.alive = True

        self._queues: Dict[Any, Deque[Tuple]] = {}
        self._channel_order: List[Any] = []
        self._rr_index = 0
        self._blocked: Set[Any] = set()
        self._wake: Optional[Event] = None
        self._seen_keys: Set[Tuple] = set()
        self._procs: List = []

        self._main = self.sim.process(self._run_loop(), name=f"node.{self.id}.loop")
        self._main.defuse()
        self._procs.append(self._main)

    # -- introspection ------------------------------------------------------
    @property
    def op_names(self) -> List[str]:
        """Names of the operators hosted here."""
        return list(self.ops)

    @property
    def is_source_node(self) -> bool:
        """Whether any hosted operator is a source."""
        return any(op.is_source for op in self.ops.values())

    @property
    def is_sink_node(self) -> bool:
        """Whether any hosted operator is a sink."""
        return any(op.is_sink for op in self.ops.values())

    def queued_items(self) -> int:
        """Total items waiting across channels (diagnostics)."""
        return sum(len(q) for q in self._queues.values())

    def pending_payloads(self) -> List[Tuple]:
        """All queued-but-unprocessed payloads, in channel order.

        Used by the departure/handoff flow: tuples still sitting in the
        old node's input queues are re-delivered to the replacement so a
        state transfer never silently drops in-flight data.
        """
        out: List[Tuple] = []
        for channel in self._channel_order:
            out.extend(self._queues.get(channel, ()))
        return out

    # -- state (checkpointing) ------------------------------------------------
    def state_size(self) -> int:
        """Bytes of operator state a checkpoint of this node must save."""
        return sum(op.state_size() for op in self.ops.values())

    def snapshot_state(self) -> Dict[str, Any]:
        """In-memory snapshot of every hosted operator's state."""
        return {name: op.snapshot() for name, op in self.ops.items()}

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Reset hosted operators from a snapshot (missing entries reset)."""
        for name, op in self.ops.items():
            op.restore(state.get(name))

    # -- channel control (token protocol) -------------------------------------
    def block_channel(self, channel: Any) -> None:
        """Stop consuming from ``channel`` (token received, waiting for rest)."""
        self._blocked.add(channel)

    def unblock_channel(self, channel: Any) -> None:
        """Resume consuming from ``channel``."""
        self._blocked.discard(channel)
        self._trigger_wake()

    def unblock_all(self) -> None:
        """Resume all channels (checkpoint snapshot taken)."""
        self._blocked.clear()
        self._trigger_wake()

    @property
    def blocked_channels(self) -> Set[Any]:
        """Channels currently blocked by the token protocol."""
        return set(self._blocked)

    # -- delivery (called by networks) -----------------------------------------
    def deliver(self, msg: Message) -> None:
        """Entry point for every message addressed to this node."""
        if not self.alive:
            return
        payload = msg.payload
        kind = payload[0]
        if kind in ("tuple", "token", "catchup_end"):
            channel = msg.src
        else:
            channel = EXTERNAL_CHANNEL
        q = self._queues.get(channel)
        if q is None:
            q = deque()
            self._queues[channel] = q
            self._channel_order.append(channel)
        q.append(payload)
        self._trigger_wake()

    def inject_local(self, op_name: str, tup: StreamTuple) -> None:
        """Queue a tuple for a hosted operator without a network hop.

        Used by recovery replay: preserved input re-enters at the source.
        """
        if not self.alive:
            return
        self.deliver(
            Message(src=EXTERNAL_CHANNEL, dst=self.id, size=0, kind="local",
                    payload=("region_input", op_name, tup))
        )

    # -- lifecycle -----------------------------------------------------------
    def kill(self, reason: str = "crash") -> None:
        """Terminate the runtime (phone failure or teardown)."""
        if not self.alive:
            return
        self.alive = False
        self._queues.clear()
        self._blocked.clear()
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt(PhoneFailure(self.id, reason))

    # -- engine ----------------------------------------------------------------
    def _trigger_wake(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _next_item(self) -> Optional[Tuple[Any, Tuple]]:
        """Round-robin pop across unblocked, non-empty channels."""
        n = len(self._channel_order)
        for step in range(n):
            idx = (self._rr_index + step) % n
            channel = self._channel_order[idx]
            if channel in self._blocked:
                continue
            q = self._queues.get(channel)
            if q:
                self._rr_index = (idx + 1) % n
                return channel, q.popleft()
        return None

    def _run_loop(self):
        while self.alive:
            nxt = self._next_item()
            if nxt is None:
                self._wake = Event(self.sim)
                try:
                    yield self._wake
                except Interrupt:
                    return
                finally:
                    self._wake = None
                continue
            channel, payload = nxt
            try:
                yield from self._handle(channel, payload)
            except Interrupt:
                return

    def _handle(self, channel: Any, payload: Tuple):
        kind = payload[0]
        if kind == "tuple":
            _, op_name, tup = payload
            op = self.ops.get(op_name)
            if op is not None and self._accept(op_name, tup):
                yield from self._process_chain(op_name, tup)
        elif kind == "token":
            self.region.scheme.on_token(self, channel, payload[1])
        elif kind == "catchup_end":
            self.region.scheme.on_catchup_end(self, channel, payload[1])
        elif kind == "source_copy":
            _, op_name, tup = payload
            yield from self._ingest(op_name, tup, forward_copies=False)
        elif kind == "region_input":
            _, op_name, tup = payload
            yield from self._ingest(op_name, tup, forward_copies=True)
        elif kind == "hb":
            pass  # liveness probes carry no data
        else:
            # Scheme-specific control traffic (checkpoint acks etc.).
            self.region.scheme.on_node_control(self, channel, payload)

    def _accept(self, op_name: str, tup: StreamTuple) -> bool:
        """Deduplicate logical tuples.

        Replicas of the producing operator (rep-k chains) and post-recovery
        reprocessing both regenerate tuples carrying the *same* emit key;
        the first copy to arrive is processed, later copies are dropped.
        This is simultaneously the rep-k duplicate filter and the
        exactly-once guarantee of checkpoint/replay recovery.
        """
        if tup.emit_key is None:
            return True
        key = (op_name, tup.emit_key)
        if key in self._seen_keys:
            return False
        self._seen_keys.add(key)
        return True

    def _ingest(self, op_name: str, tup: StreamTuple, forward_copies: bool):
        """Run a tuple into a hosted source operator."""
        op = self.ops.get(op_name)
        if op is None:
            return
        if tup.lineage is None:
            tup.lineage = (f"{self.region.name}.{op_name}", tup.source_seq)
        # A source entry always starts the emit-key chain fresh: replayed
        # (preserved) tuples may carry a stale key from their first pass,
        # and keys must regenerate identically for dedup to fire.
        tup.emit_key = None
        # Exactly one record per on_source_ingest call (replays included):
        # the delivery ledger of the invariant harness mirrors the
        # preservation store through this 1:1 correspondence.
        self.region.trace.record(
            self.sim.now, "source_ingest", region=self.region.name,
            node=self.id, op=op_name, seq=tup.source_seq,
        )
        self.region.scheme.on_source_ingest(self, op_name, tup)
        if forward_copies and self.region.placement.replication_factor > 1:
            # Feed the other chains' source replicas (replication traffic).
            for r, nid in enumerate(self.region.placement.nodes_for(op_name)):
                if nid != self.id:
                    self.region.send_source_copy(self, op_name, nid, tup)
        yield from self._process_chain(op_name, tup)

    def _process_chain(self, op_name: str, tup: StreamTuple):
        """Process a tuple through ``op_name`` and any co-located successors."""
        op = self.ops[op_name]
        cost = op.cost(tup)
        if cost > 0:
            work = self.phone.compute_time(cost)
            req = self.cpu.request()
            yield req
            try:
                yield self.sim.timeout(work)
            finally:
                self.cpu.release(req)
            self.phone.battery.drain_cpu(work)
        if not self.alive:
            return

        ctx = self.region.operator_context()
        try:
            outputs = op.process(tup, ctx)
        except Exception as exc:
            # An operator bug must not silently kill the whole node loop;
            # the tuple is dropped and the error surfaced in the trace.
            self.region.trace.count("op_errors")
            self.region.trace.record(
                self.sim.now, "op_error", region=self.region.name,
                node=self.id, op=op_name, error=repr(exc),
            )
            return
        self.region.scheme.on_processed(self, op_name, tup)
        telemetry = self.region.telemetry
        if telemetry is not None:
            telemetry.tuple_complete(self.region.name, op_name, len(outputs))

        if op.is_sink:
            for out in outputs:
                self.region.on_sink_output(self, op_name, out)
            return

        chain = self.op_chain[op_name]
        downstream = self.region.graph.downstream_of(op_name)
        # The key chains off the *input's* emit key (not just lineage) so
        # that a multi-input operator fed the same source tuple along two
        # paths (diamonds: A->J and L->J) emits distinct keys per path,
        # while replicas and replays regenerate identical keys.
        in_key = tup.emit_key if tup.emit_key is not None else tup.lineage
        for emit_idx, out in enumerate(outputs):
            out.emit_key = (op_name, in_key, emit_idx)
            for d_op in op.route(out, downstream):
                d_chain = min(chain, len(self.region.placement.nodes_for(d_op)) - 1)
                if not self.region.scheme.chain_active(d_chain):
                    continue  # that dataflow chain is dead (rep-k after loss)
                target = self.region.placement.node_for(d_op, d_chain)
                if target == self.id and self.op_chain.get(d_op) == d_chain:
                    # Intra-node data pass: no network, immediate.
                    self.region.scheme.on_emit(self, op_name, d_op, out, remote=False)
                    yield from self._process_chain(d_op, out)
                else:
                    self.region.scheme.on_emit(self, op_name, d_op, out, remote=True)
                    self.region.route_tuple(self, d_op, out, chain=d_chain)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"<NodeRuntime {self.id} op_chain={self.op_chain} {state}>"
