"""The MobiStreams fault-tolerance scheme (``ms-n`` in the figures).

Composes the paper's machinery:

* **Checkpointing** (Section III-B): the controller's clock calls
  :meth:`MobiStreamsScheme.request_checkpoint`; token-origin nodes (node-
  graph sources) snapshot and inject tokens; every other node snapshots
  when it holds tokens on all upstream channels (blocking exactly the
  token-bearing channels meanwhile); snapshots are saved asynchronously
  via multi-phase UDP broadcast to *every* phone in the region
  (Section III-C).
* **Source preservation**: sources retain all input since the MRC, in
  per-checkpoint segments; the data rides the region broadcast so every
  phone holds a copy.
* **Recovery** (Section III-D): any number of simultaneous failures is
  survivable while replacements exist, because every phone has the MRC
  and the preserved input.  The whole region restores to the MRC in
  parallel (local flash reads) and catches up by replaying preserved
  input; already-published results are suppressed by emit-key dedup.
* **Mobility** (Section III-E): a departure triggers urgent-mode routing
  (handled by the region), then a cellular state transfer to a
  replacement phone and a WiFi rebuild — no restore, no catch-up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.baselines.interface import FaultToleranceScheme
from repro.checkpoint.broadcast import BroadcastSettings, broadcast_checkpoint
from repro.checkpoint.store import CheckpointStore, PreservationStore
from repro.checkpoint.token_protocol import TokenTracker
from repro.core.controller import CONTROLLER_ID, UNRECOVERABLE
from repro.core.tuples import Token
from repro.net.cellular import UnknownEndpoint
from repro.net.packet import Message
from repro.net.wifi import Unreachable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import NodeRuntime
    from repro.core.tuples import StreamTuple


class MobiStreamsScheme(FaultToleranceScheme):
    """Token-triggered + broadcast-based checkpointing."""

    wants_checkpoint_clock = True
    #: Section III-D's claim, mechanized by :mod:`repro.verify`: no loss
    #: and no duplication across crash/recovery epochs.
    delivery_contract = "exactly-once"

    def __init__(
        self,
        broadcast: Optional[BroadcastSettings] = None,
        label: str = "ms-8",
    ) -> None:
        super().__init__()
        self.name = label
        self.broadcast_settings = broadcast or BroadcastSettings()
        self.tokens = TokenTracker()
        self.store = CheckpointStore()
        self.preservation = PreservationStore()
        self._version = 0
        self._recovering = False

    # -- checkpoint entry point (controller clock) ----------------------------
    def request_checkpoint(self) -> None:
        """Section III-B step 1: notify the region's token origins."""
        region = self.region
        if region.stopped or region.paused or self._recovering:
            return
        self._version += 1
        version = self._version
        participants = sorted(set(region.placement.used_nodes()))
        self.store.begin_version(version, participants)
        # New preservation segment: input after this cut belongs to v.
        self.preservation.start_segment(version)
        self.trace.record(
            self.sim.now, "checkpoint_requested", region=region.name, version=version
        )
        ng = region.graph.node_graph(region.placement.chain_assignment(0))
        origins = [n for n in ng.nodes if ng.in_degree(n) == 0]
        for origin_id in origins:
            node = region.nodes.get(origin_id)
            if node is None or not node.alive:
                continue
            # Origins snapshot immediately (no upstream tokens to wait for)
            # and inject tokens into the dataflow.
            self._snapshot_and_save(node, version)
            self._forward_tokens(node, version)

    # -- token handling (called from node runtimes) ------------------------------
    def on_token(self, node: "NodeRuntime", channel: Any, token: Token) -> None:
        if self.tokens.is_abandoned(token.version):
            # Late token of a written-off wave (a membership change hit
            # mid-checkpoint): ignore it — never block on it.
            return
        expected = set(self.region.upstream_nodes(node.id))
        node.block_channel(channel)
        ready = self.tokens.record(node.id, token.version, channel, expected)
        self.trace.record(
            self.sim.now, "token_received", region=self.region.name,
            node=node.id, src=channel, version=token.version, ready=ready,
        )
        if ready:
            node.unblock_all()
            self._snapshot_and_save(node, token.version)
            self._forward_tokens(node, token.version)

    def _forward_tokens(self, node: "NodeRuntime", version: int) -> None:
        downstream = self.region.downstream_nodes(node.id)
        token = Token(version=version, origin=node.id)
        for d in downstream:
            # Tokens travel in-band: they enter the same FIFO WiFi path as
            # tuples, so their stream position marks the cut exactly.
            self.region.send_control(node.id, d, ("token", token), size=token.size)
        if not downstream:
            # Sink node: the token percolates back to the controller.
            msg = Message(
                src=node.id, dst=CONTROLLER_ID, size=token.size, kind="token_done",
                payload=("token_done", self.region.name, version),
            )
            self.sim.process(self._to_controller(msg), name="ms.token_done").defuse()

    def _to_controller(self, msg: Message):
        try:
            yield from self.region.cellular.send(msg)
        except UnknownEndpoint:  # pragma: no cover - controller is reliable
            pass

    # -- snapshot + async broadcast save ----------------------------------------
    def _snapshot_and_save(self, node: "NodeRuntime", version: int) -> None:
        """Capture state at the token cut; save it in the background.

        "Checkpointing is done asynchronously, i.e. the node spawns a
        separate thread for checkpointing, so as to minimize overhead."
        """
        snapshot = node.snapshot_state()
        size = max(1, node.state_size())
        self.trace.record(
            self.sim.now, "node_snapshot", region=self.region.name,
            node=node.id, version=version, size=size,
        )
        self.sim.process(
            self._save(node, version, snapshot, size),
            name=f"ms.save.{node.id}.v{version}",
        ).defuse()

    def _save(self, node: "NodeRuntime", version: int, snapshot: Dict, size: int):
        region = self.region
        # Serialization costs CPU on the node (competes with processing).
        ser = node.phone.compute_time(size * 8.0 / region.config.serialize_bps)
        req = node.cpu.request()
        yield req
        try:
            yield self.sim.timeout(ser)
        finally:
            node.cpu.release(req)
        if not node.alive:
            return
        # Multi-phase UDP broadcast + TCP tree to every phone in the region.
        outcome = yield from broadcast_checkpoint(
            self.sim, region.wifi, node.id, size,
            settings=self.broadcast_settings, trace=self.trace,
        )
        # Local copy persists too (every node keeps the MRC data).
        node.phone.storage.write(("ms_ckpt", version), size, payload=snapshot)
        node.phone.storage.delete(("ms_ckpt", version - 2))
        complete = self.store.put(
            version, node.id, frozenset(node.op_names), snapshot, size
        )
        self.trace.record(
            self.sim.now, "node_checkpoint", region=region.name, node=node.id,
            scheme=self.name, version=version, size=size,
            broadcast_bytes=outcome.network_bytes,
        )
        self.trace.count("ckpt.completed")
        if complete:
            self._on_checkpoint_complete(version)

    def _on_checkpoint_complete(self, version: int) -> None:
        self.preservation.on_checkpoint_complete(version)
        # Token FIFO-ness means no pre-`version` token can still arrive;
        # archive the tracker's bookkeeping so it stays O(live waves).
        self.tokens.prune_abandoned(version)
        self.trace.record(
            self.sim.now, "checkpoint_complete", region=self.region.name,
            version=version,
        )
        self.trace.count("ckpt.region_complete")

    # -- source preservation --------------------------------------------------------
    def on_source_ingest(self, node: "NodeRuntime", op_name: str, tup: "StreamTuple") -> None:
        """Preserve all input since the MRC (replicated via broadcast)."""
        self.preservation.record(op_name, tup)
        self.count_preserved(tup.size)

    def _abandon_inflight_checkpoint(self) -> None:
        """Write off every checkpoint wave interrupted by a membership change.

        "If failures happen during a checkpoint is being performed, the
        DSPS can be still recovered as above, just ignoring the partial
        checkpoint data that have been saved so far" — likewise for
        departures and handoffs: a downstream join might otherwise wait
        (with channels blocked) for a token the departed node will never
        forward.

        *Every* pending wave above the MRC is abandoned, not just the
        newest: slow async saves let several waves be in flight at once,
        and a wave left pending here could complete *mid-recovery* —
        advancing the MRC and dropping preservation segments after the
        recovery already chose its restore point, so the catch-up replay
        would silently skip the dropped input (observed as a replay-gap
        invariant violation; the recovery would lose tuples).
        """
        abandoned = False
        for version in range(self.store.mrc_version + 1, self._version + 1):
            if not self.store.is_pending(version):
                continue
            self.tokens.abandon(version)
            self.store.abandon_version(version)
            abandoned = True
            self.trace.record(
                self.sim.now, "checkpoint_abandoned", region=self.region.name,
                version=version,
            )
        if abandoned:
            for node in self.region.nodes.values():
                node.unblock_all()

    # -- failure recovery (Section III-D) ----------------------------------------
    def on_failure(self, failed_ids: List[str]):
        region = self.region
        replacements = region.pick_replacements(failed_ids)
        if replacements is None:
            # "If there are no sufficient healthy nodes in a region after
            # some nodes fail, the controller stops the computation task."
            return UNRECOVERABLE
        return self._recover(failed_ids, replacements)

    def _recover(self, failed_ids: List[str], replacements: Dict[str, str]):
        region = self.region
        self._recovering = True
        region.pause()
        self._abandon_inflight_checkpoint()
        mrc = self.store.mrc_version
        try:
            # 1. Ship operator code to the replacements (parallel, cellular).
            sends = []
            for failed, repl in replacements.items():
                msg = Message(
                    src=CONTROLLER_ID, dst=repl, size=region.config.code_size,
                    kind="code", payload=("code",),
                )
                sends.append(self.sim.process(self._to_phone(msg), name="ms.code"))
            if sends:
                yield self.sim.all_of(sends)
            for failed, repl in replacements.items():
                region.promote_replacement(failed, repl)
                self.tokens.reset_node(failed)

            # 2. Parallel restoration: every node reloads the MRC from its
            # local flash ("Restoration of individual nodes thus occurs
            # simultaneously").
            states: Dict[str, Dict] = {}
            max_size = 1
            for op_key, (snapshot, size) in self.store.states_at_mrc().items():
                ops = set(op_key)
                any_op = next(iter(ops))
                node_id = region.placement.node_for(any_op, 0)
                states[node_id] = snapshot
                max_size = max(max_size, size)
            yield self.sim.timeout(max_size * 8.0 / region.config.flash_read_bps)

            # 3. Rebuild the WiFi mesh and restart every node from the MRC.
            yield self.sim.timeout(region.config.wifi_rebuild_s)
            region.rebuild_nodes(states)

            # 4. Catch-up: sources replay preserved input; emit-key dedup
            # suppresses already-published results at the sinks.
            replayed = self.preservation.replay_from(mrc)
            self.trace.record(
                self.sim.now, "catchup_started", region=region.name,
                tuples=len(replayed), mrc=mrc,
            )
            for op_name, tup in replayed:
                nid = region.placement.node_for(op_name, 0)
                node = region.nodes.get(nid)
                if node is None:
                    continue
                node.deliver(Message(
                    src="__replay__", dst=nid, size=tup.size, kind="tuple",
                    payload=("source_copy", op_name, tup),
                ))
        finally:
            self._recovering = False
            region.resume()
        return "recovered"

    def _to_phone(self, msg: Message):
        try:
            yield from self.region.cellular.send(msg)
        except UnknownEndpoint:
            pass

    # -- mobility (Section III-E) ---------------------------------------------------
    def on_departure(self, phone_id: str):
        region = self.region
        replacements = region.pick_replacements([phone_id])
        if replacements is None:
            return UNRECOVERABLE
        return self._handle_departure(phone_id, replacements[phone_id])

    def on_self_report(self, phone_id: str):
        """Chronic battery: hand the node's work off before the phone dies.

        Same flow as a departure, but the state moves over WiFi (the
        phone is still in range) — no restoration, no catch-up.  With no
        spare phone available the handoff is declined and the eventual
        battery death is recovered like any failure.
        """
        region = self.region
        if phone_id not in set(region.placement.used_nodes()):
            return None
        replacements = region.pick_replacements([phone_id])
        if replacements is None:
            return None
        return self._handle_departure(phone_id, replacements[phone_id],
                                      via_wifi=True)

    def _handle_departure(self, phone_id: str, replacement: str,
                          via_wifi: bool = False):
        """Urgent mode is already active; transfer state, swap the phone in.

        ``via_wifi`` is the proactive (chronic battery) handoff: the phone
        is still in range, so the state moves over the region's WiFi
        instead of the cellular network.
        """
        region = self.region
        node = region.nodes.get(phone_id)
        state: Optional[Dict] = None
        size = 1
        if node is not None and node.alive:
            state = node.snapshot_state()
            size = max(1, node.state_size())
        # 1. Code to the replacement + state transfer over *cellular* —
        # the departing phone is out of WiFi range (Fig. 7, t=3).  Many
        # simultaneous departures contend for the shared uplink here.
        code = Message(src=CONTROLLER_ID, dst=replacement,
                       size=region.config.code_size, kind="code", payload=("code",))
        yield from self._to_phone(code)
        if state is not None and via_wifi and region.wifi.is_member(phone_id):
            transfer = Message(src=phone_id, dst=replacement, size=size,
                               kind="state_transfer", payload=("state",))
            try:
                yield from region.wifi.tcp_unicast(transfer)
            except Unreachable:
                yield from self._to_phone(transfer)
        elif state is not None and region.cellular.is_registered(phone_id):
            transfer = Message(src=phone_id, dst=replacement, size=size,
                               kind="state_transfer", payload=("state",))
            yield from self._to_phone(transfer)
        elif state is None:
            # The departing node was never reachable: fall back to MRC.
            record = self.store.states_at_mrc().get(
                frozenset(region.placement.ops_on(phone_id))
            )
            if record is not None:
                state = record[0]

        # 2. Swap the replacement in and rebuild WiFi links (Fig. 7, t=4).
        # A token wave in flight through the departing node would stall
        # downstream joins forever — write it off first.
        self._abandon_inflight_checkpoint()
        # Tuples still queued at the old node move to the replacement —
        # emit-key dedup drops anything the old node also processed.
        pending = node.pending_payloads() if node is not None else []
        if node is not None:
            node.kill("departed")
        region.promote_replacement(phone_id, replacement)
        self.tokens.reset_node(phone_id)
        new_node = region.build_single_node(replacement, state)
        for payload in pending:
            if payload and payload[0] == "tuple":
                new_node.deliver(Message(
                    src="__handoff__", dst=replacement,
                    size=getattr(payload[2], "size", 0), kind="tuple",
                    payload=payload,
                ))
        yield self.sim.timeout(region.config.wifi_rebuild_s)

        # 3. The departed phone unregisters with the controller.
        region.unregister_phone(phone_id)
        self.trace.record(
            self.sim.now, "departure_state_transfer", region=region.name,
            departed=phone_id, replacement=replacement, size=size,
        )
        return "replaced"
