"""A region: one cluster of phones running one DSPS (Fig. 4, low level).

The region owns the phones (computing + idle), the WiFi cell, the node
runtimes, and the intra-region router.  It exposes *mechanisms* —
pausing, killing nodes, rebuilding after recovery, urgent-mode routing —
that the controller and the fault-tolerance scheme drive.

Routing rules (Sections III-A/E):

* intra-region streams go over ad-hoc WiFi;
* if a WiFi link is broken (departed phone), the sender falls back to the
  cellular network (**urgent mode**) and notifies the controller;
* if the destination's cellular radio is also gone, the phone is dead:
  the sender files a failure report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.core.graph import QueryGraph
from repro.core.node import NodeRuntime
from repro.core.operator import OperatorContext
from repro.core.placement import Placement
from repro.core.tuples import StreamTuple
from repro.device.phone import Phone
from repro.net.cellular import CellularNetwork, UnknownEndpoint
from repro.net.packet import Message
from repro.net.wifi import Unreachable, WifiCell
from repro.sim.events import Event
from repro.util.simlog import get_logger
from repro.util.units import KB, Mbps

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import Controller
    from repro.sim.core import Simulator
    from repro.sim.monitor import Trace
    from repro.sim.rng import RngRegistry

#: Per-tuple network envelope (framing/serialization overhead).
TUPLE_ENVELOPE = 64


@dataclass
class RegionConfig:
    """Region-level parameters."""

    name: str
    #: Period of upstream-neighbor liveness probes (Section III-D).
    heartbeat_period_s: float = 10.0
    #: Size of an operator's code bundle shipped to a replacement phone.
    code_size: int = 256 * KB
    #: Time to (re)establish the intra-region WiFi mesh.
    wifi_rebuild_s: float = 2.0
    #: Flash sequential read rate (state reload during restoration).
    flash_read_bps: float = Mbps(160.0)
    #: Flash sequential write rate (local checkpointing).
    flash_write_bps: float = Mbps(80.0)
    #: CPU-side state serialization rate (checkpoint snapshot cost).
    serialize_bps: float = Mbps(400.0)
    #: Battery bookkeeping tick (0 disables the energy model).  Each tick
    #: drains idle power; phones at chronic charge proactively report to
    #: the controller (Section III-D) and dead batteries crash the phone.
    battery_tick_s: float = 5.0

    def __post_init__(self) -> None:
        if self.heartbeat_period_s <= 0:
            raise ValueError("heartbeat period must be positive")
        if self.battery_tick_s < 0:
            raise ValueError("battery tick must be >= 0 (0 disables)")


class Region:
    """One region's runtime."""

    def __init__(
        self,
        sim: "Simulator",
        rng: "RngRegistry",
        trace: "Trace",
        config: RegionConfig,
        graph_factory: Callable[[], QueryGraph],
        placement: Placement,
        compute_phones: List[Phone],
        idle_phones: List[Phone],
        wifi: WifiCell,
        cellular: CellularNetwork,
        scheme: Any,
        fleet: Optional[Any] = None,
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.trace = trace
        self.config = config
        self.name = config.name
        self.placement = placement
        self.wifi = wifi
        self.cellular = cellular
        self.scheme = scheme

        self.phones: Dict[str, Phone] = {p.id: p for p in compute_phones + idle_phones}
        self.idle_ids: List[str] = [p.id for p in idle_phones]
        self._spawned = False

        # One graph instance per replication chain: replicas must not share
        # operator state objects.
        factor = placement.replication_factor
        self.graphs: List[QueryGraph] = [graph_factory() for _ in range(factor)]
        for g in self.graphs:
            g.validate()
        self.graph = self.graphs[0]

        self.nodes: Dict[str, NodeRuntime] = {}
        self.paused = False
        self.stopped = False
        self._resume_waiters: List[Event] = []
        self._workloads: Dict[str, Iterable] = {}
        self._driver_started: Set[str] = set()
        self._sink_seen: Set[Tuple] = set()
        self._recovery_ids = itertools.count(1)
        self._ctx = OperatorContext(now=sim.now, rng=rng, region_name=self.name)

        #: Downstream regions: list of (source_node_resolver, region_name).
        self._downstream: List["Region"] = []
        self.controller: Optional["Controller"] = None
        #: Live QoS monitor, if any (set by ``QoSMonitor.watch_region``).
        #: Node runtimes report tuple completions here; ``None`` keeps
        #: the hot path at a single attribute check.
        self.telemetry: Optional[Any] = None
        #: Links currently in urgent (cellular) mode: {(src_node, dst_node)}.
        self.urgent_links: Set[Tuple[str, str]] = set()
        #: Phones that already filed a chronic-battery self-report
        #: (object backend).
        self._battery_reported: Set[str] = set()
        #: The fleet backend's form of ``_battery_reported``: a mask over
        #: fleet indices, so a battery tick drops already-reported phones
        #: in numpy instead of visiting each one.
        self._battery_flagged = np.zeros(0, dtype=bool)
        #: Vectorized device backend, when the system runs one (see
        #: :class:`repro.device.fleet.Fleet`).  The phones dict then holds
        #: FleetPhone proxies and the battery loop runs as batch sweeps.
        self._fleet = fleet
        #: Cached fleet indices of this region's phones (ascending ==
        #: phones-dict insertion order); invalidated on join/departure.
        self._fleet_idx: Optional[np.ndarray] = None
        #: One-time warning latch for departures of dead/departed phones.
        self._warned_dead_departure = False

    # -- wiring -------------------------------------------------------------
    def bind_workload(self, op_name: str, workload: Iterable) -> None:
        """Attach an external data workload to a source operator.

        The iterator yields ``(inter_arrival_s, payload, size)``.  The
        iterator object persists across failures/recoveries — sensors keep
        producing regardless of DSPS state.
        """
        if op_name not in self.graph.source_names():
            raise ValueError(f"{op_name!r} is not a source operator")
        self._workloads[op_name] = iter(workload)

    def wrap_workloads(self, wrapper: Callable[[Iterable], Iterable]) -> None:
        """Replace every bound workload with ``wrapper(workload)``.

        Pre-start hook for scenario machinery (e.g. surge rate scaling);
        once the source drivers are running, the iterators are pinned.
        """
        if self._driver_started:
            raise RuntimeError("workloads already running; wrap before start")
        self._workloads = {op: iter(wrapper(w)) for op, w in self._workloads.items()}

    def admit_idle_phone(self, phone: Phone) -> None:
        """A phone arrives in the region and registers as an idle spare.

        Mirrors the Section III-A registration path for a phone that shows
        up after boot: it joins the ad-hoc WiFi and the cellular network
        and becomes available for replacement promotion.
        """
        if phone.id in self.phones:
            raise ValueError(f"phone {phone.id!r} already in region {self.name}")
        self.phones[phone.id] = phone
        self.idle_ids.append(phone.id)
        self._fleet_idx = None
        if self._spawned:
            self._join_networks(phone.id)
        self.trace.record(self.sim.now, "phone_joined", region=self.name, phone=phone.id)
        self.trace.count(f"{self.name}.joins")

    def add_downstream_region(self, region: "Region") -> None:
        """Cascade: this region's sink results feed ``region``'s sources."""
        self._downstream.append(region)

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Boot the region: build nodes, join WiFi, start sources & probes."""
        if self._spawned:
            raise RuntimeError(f"region {self.name} already started")
        self._spawned = True
        for phone in self.phones.values():
            self._join_networks(phone.id)
        self._build_nodes()
        self.scheme.attach(self)
        self._start_sources()
        self.sim.process(self._heartbeat_loop(), name=f"{self.name}.heartbeat").defuse()
        if self.config.battery_tick_s > 0:
            self.sim.process(self._battery_loop(), name=f"{self.name}.battery").defuse()
        self.trace.record(self.sim.now, "region_started", region=self.name)

    def _join_networks(self, phone_id: str) -> None:
        self.wifi.join(phone_id, self._make_deliver(phone_id))
        self.join_cellular(phone_id)

    def join_cellular(self, phone_id: str) -> None:
        """Attach a phone's cellular radio (idempotent: a phone already
        on the cellular network keeps its registration)."""
        if not self.cellular.is_registered(phone_id):
            self.cellular.register_phone(phone_id, self._make_deliver(phone_id))

    def _make_deliver(self, phone_id: str):
        def deliver(msg: Message) -> None:
            node = self.nodes.get(phone_id)
            if node is not None and node.alive:
                node.deliver(msg)
            else:
                # In flight to a phone that was swapped out mid-transfer
                # (departure/handoff): bounce the tuple to the operator's
                # current host so the swap window loses nothing.
                self._bounce(msg)
            # Idle phones and scheme-level snooping:
            self.scheme.on_region_message(phone_id, msg)

        return deliver

    def _bounce(self, msg: Message) -> None:
        payload = msg.payload
        if self.stopped or not isinstance(payload, tuple) or not payload:
            return
        if payload[0] not in ("tuple", "region_input", "source_copy"):
            return
        op_name = payload[1]
        if op_name not in self.graph:
            return
        for host in self.placement.nodes_for(op_name):
            node = self.nodes.get(host)
            if node is not None and node.alive and op_name in node.ops:
                self.trace.count(f"{self.name}.bounced_tuples")
                node.deliver(msg)
                return

    def _build_nodes(self) -> None:
        """Create a NodeRuntime on every phone hosting at least one op.

        A host that died *while* a recovery was in progress is skipped,
        not fatal: its absence is detected by the heartbeat/ping loops
        and handled by the next recovery round ("more failures may have
        been reported while recovering", Section III-D).
        """
        per_phone: Dict[str, List[Tuple[Any, int]]] = {}
        for chain, graph in enumerate(self.graphs):
            assignment = self.placement.chain_assignment(chain)
            for op_name, node_id in assignment.items():
                per_phone.setdefault(node_id, []).append((graph.operator(op_name), chain))
        for node_id, ops in per_phone.items():
            phone = self.phones.get(node_id)
            if phone is None or not phone.alive:
                self.trace.record(
                    self.sim.now, "rebuild_skipped_dead",
                    region=self.name, phone=node_id,
                )
                continue
            self.nodes[node_id] = NodeRuntime(self, phone, ops)

    def _start_sources(self) -> None:
        """Start a persistent driver per bound workload (idempotent).

        Drivers model the external sensor (camera, infrared counter): they
        keep producing regardless of DSPS failures, delivering each datum
        to every chain's source node.  The driver outlives node rebuilds.
        """
        for op_name in self._workloads:
            if op_name not in self._driver_started:
                self._driver_started.add(op_name)
                self.sim.process(
                    self._source_driver(op_name), name=f"{self.name}.sensor.{op_name}"
                ).defuse()

    def _source_driver(self, op_name: str):
        workload = self._workloads[op_name]
        inputs = self.trace.counter(f"{self.name}.source_inputs")
        seq = 0
        for wait, payload, size in workload:
            yield self.sim.timeout(wait)
            if self.stopped:
                return
            if self.paused:
                # Sensors keep shooting during recovery; the datum is
                # delivered as soon as the region resumes.
                yield self.resume_event()
                if self.stopped:
                    return
            tup = StreamTuple(
                payload=payload,
                size=size,
                entered_at=self.sim.now,
                source_seq=seq,
                lineage=(f"{self.name}.{op_name}", seq),
            )
            seq += 1
            inputs.add()
            for chain in range(self.placement.replication_factor):
                if not self.scheme.chain_active(chain):
                    continue
                nid = self.placement.node_for(op_name, chain)
                node = self.nodes.get(nid)
                if node is None or not node.alive:
                    continue
                if chain > 0:
                    # Duplicating the sensor feed is replication traffic.
                    self.scheme.on_source_copy(node, op_name, tup)
                node.deliver(
                    Message(
                        src="__sensor__",
                        dst=nid,
                        size=size,
                        kind="tuple",
                        payload=("source_copy", op_name, tup),
                    )
                )

    def stop(self, reason: str = "insufficient phones") -> None:
        """Stop the region's computation (bypass, Section III-D)."""
        if self.stopped:
            return
        self.stopped = True
        self.paused = True
        for node in self.nodes.values():
            node.kill("region stopped")
        self.trace.record(self.sim.now, "region_stopped", region=self.name, reason=reason)

    # -- pause/resume (recovery windows) ------------------------------------
    def pause(self) -> None:
        """Freeze source ingestion (recovery in progress)."""
        self.paused = True
        self.trace.record(self.sim.now, "region_paused", region=self.name)

    def resume(self) -> None:
        """Unfreeze source ingestion."""
        self.paused = False
        waiters, self._resume_waiters = self._resume_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()
        self.trace.record(self.sim.now, "region_resumed", region=self.name)

    def resume_event(self) -> Event:
        """Event fired at the next :meth:`resume` (immediate if running)."""
        ev = Event(self.sim)
        if not self.paused:
            ev.succeed()
        else:
            self._resume_waiters.append(ev)
        return ev

    # -- operator services -----------------------------------------------------
    def operator_context(self) -> OperatorContext:
        """Context passed to ``Operator.process``: the region's one
        context, stamped with the current time."""
        self._ctx.now = self.sim.now
        return self._ctx

    # -- routing ------------------------------------------------------------
    def route_tuple(self, from_node: NodeRuntime, d_op: str, tup: StreamTuple, chain: int = 0) -> None:
        """Send a tuple to the node hosting ``d_op`` (fire-and-forget).

        The send needs no process: see :meth:`_send`.
        """
        target = self.placement.node_for(d_op, chain)
        msg = Message(
            src=from_node.id,
            dst=target,
            size=tup.size + TUPLE_ENVELOPE,
            kind="tuple",
            payload=("tuple", d_op, tup),
        )
        self._send(msg)

    def send_source_copy(self, from_node: NodeRuntime, op_name: str, target: str, tup: StreamTuple) -> None:
        """Forward an ingested source tuple to another chain's source node."""
        msg = Message(
            src=from_node.id,
            dst=target,
            size=tup.size + TUPLE_ENVELOPE,
            kind="tuple",
            payload=("source_copy", op_name, tup),
        )
        self.scheme.on_source_copy(from_node, op_name, tup)
        self._send(msg)

    def send_control(self, src: str, dst: str, payload: Tuple, size: int = 128) -> None:
        """Send a small in-band control message over WiFi (fire-and-forget,
        without a process, like :meth:`route_tuple`)."""
        msg = Message(src=src, dst=dst, size=size, kind="control", payload=payload)
        self._send(msg)

    def _drain_radio(self, phone_id: str, n_bytes: float, cellular: bool) -> None:
        phone = self.phones.get(phone_id)
        if phone is not None and phone.alive:
            if cellular:
                phone.battery.drain_cellular(n_bytes)
            else:
                phone.battery.drain_wifi(n_bytes)

    def _send(self, msg: Message) -> None:
        """WiFi first, by channel callbacks; a broken link (destination
        absent, or gone by the end of the airtime) starts the
        :meth:`_fallback` process."""
        self.wifi.tcp_unicast(msg, on_sent=self._wifi_sent, on_lost=self._wifi_lost)

    def _wifi_sent(self, msg: Message) -> None:
        self._drain_radio(msg.src, msg.size, cellular=False)
        self.urgent_links.discard((msg.src, msg.dst))

    def _wifi_lost(self, msg: Message) -> None:
        self.sim.process(self._fallback(msg), name=f"{self.name}.fallback").defuse()

    def _fallback(self, msg: Message):
        """Urgent-mode cellular for a broken WiFi link; report failures."""
        # Urgent mode (Section III-E): transmit over cellular and tell the
        # controller the WiFi link is broken.
        phone = self.phones.get(msg.dst)
        if phone is not None and phone.alive and self.cellular.is_registered(msg.dst):
            first_time = (msg.src, msg.dst) not in self.urgent_links
            self.urgent_links.add((msg.src, msg.dst))
            if first_time:
                self.trace.record(
                    self.sim.now, "urgent_mode", region=self.name, src=msg.src, dst=msg.dst
                )
                if self.controller is not None:
                    self.controller.on_urgent_report(self, msg.src, msg.dst)
            try:
                yield from self.cellular.send(msg)
                self._drain_radio(msg.src, msg.size, cellular=True)
                return True
            except UnknownEndpoint:
                pass
        # Destination is gone for good: failure report (Section III-D).
        if self.controller is not None:
            self.controller.on_failure_report(self, msg.dst, reporter=msg.src)
        return False

    # -- node-level graph queries (Fig. 1b) -----------------------------------
    def upstream_nodes(self, node_id: str, chain: int = 0) -> List[str]:
        """Upstream neighbour nodes of ``node_id`` in one chain."""
        ng = self.graph.node_graph(self.placement.chain_assignment(chain))
        if node_id not in ng:
            return []
        return ng.predecessors(node_id)

    def downstream_nodes(self, node_id: str, chain: int = 0) -> List[str]:
        """Downstream neighbour nodes of ``node_id`` in one chain."""
        ng = self.graph.node_graph(self.placement.chain_assignment(chain))
        if node_id not in ng:
            return []
        return ng.successors(node_id)

    def source_node_ids(self, chain: int = 0) -> List[str]:
        """Nodes hosting source operators."""
        return sorted(
            {self.placement.node_for(op, chain) for op in self.graph.source_names()}
        )

    # -- sink handling ----------------------------------------------------------
    def on_sink_output(self, node: NodeRuntime, op_name: str, tup: StreamTuple) -> None:
        """Handle a result produced by a sink operator."""
        if tup.replay:
            # Catch-up results are discarded "so as not to pollute other
            # regions" (Section III-D).
            self.trace.count(f"{self.name}.sink_discarded")
            self.trace.record(
                self.sim.now, "sink_discard", region=self.name, op=op_name,
                reason="replay",
            )
            return
        if tup.emit_key is not None:
            # Deduplicate across replica chains and post-recovery
            # reprocessing: a result is published exactly once.
            key = (op_name, tup.emit_key)
            if key in self._sink_seen:
                self.trace.count(f"{self.name}.sink_discarded")
                self.trace.record(
                    self.sim.now, "sink_discard", region=self.name, op=op_name,
                    reason="duplicate",
                )
                return
            self._sink_seen.add(key)
        self.trace.record(
            self.sim.now,
            "sink_output",
            region=self.name,
            op=op_name,
            entered_at=tup.entered_at,
            latency=self.sim.now - tup.entered_at,
            seq=tup.source_seq,
            key=tup.emit_key,
        )
        self.trace.count(f"{self.name}.sink_outputs")
        for downstream in self._downstream:
            self._forward_to_region(node, downstream, tup)

    def _forward_to_region(self, node: NodeRuntime, downstream: "Region", tup: StreamTuple) -> None:
        """Ship a result to the next region over the cellular network."""
        target_op = downstream.inter_region_entry()
        if target_op is None or downstream.stopped:
            return
        target_node = downstream.placement.node_for(target_op, 0)
        out = StreamTuple(
            payload=tup.payload,
            size=tup.size,
            entered_at=tup.entered_at,  # end-to-end latency is preserved
            source_seq=tup.source_seq,
        )
        msg = Message(
            src=node.id,
            dst=target_node,
            size=tup.size + TUPLE_ENVELOPE,
            kind="region_tuple",
            payload=("region_input", target_op, out),
        )
        self.sim.process(self._cellular_send(msg), name=f"{self.name}.fw").defuse()

    def _cellular_send(self, msg: Message):
        try:
            yield from self.cellular.send(msg)
        except UnknownEndpoint:
            pass  # destination region is mid-recovery; the tuple is lost

    def inter_region_entry(self) -> Optional[str]:
        """The source operator that receives upstream regions' results.

        Convention: the source named ``S0`` if present, else the first
        source without a bound workload, else the first source.
        """
        sources = self.graph.source_names()
        if not sources:
            return None
        if "S0" in sources:
            return "S0"
        for s in sources:
            if s not in self._workloads:
                return s
        return sources[0]

    # -- failures and departures ---------------------------------------------
    def apply_crash(self, phone_id: str, reason: str = "injected") -> None:
        """A phone dies: volatile state lost, radios silent (Section III-D)."""
        phone = self.phones.get(phone_id)
        if phone is None or not phone.alive:
            return
        phone.crash()
        self.wifi.leave(phone_id)
        self.cellular.unregister(phone_id)
        node = self.nodes.get(phone_id)
        if node is not None:
            node.kill(reason)
        if phone_id in self.idle_ids:
            self.idle_ids.remove(phone_id)
        self.trace.record(
            self.sim.now, "phone_crashed", region=self.name, phone=phone_id, reason=reason
        )

    def apply_departure(self, phone_id: str) -> None:
        """A phone walks out of the region: WiFi breaks, phone stays alive.

        Departing a phone that is already dead or gone is a graceful
        no-op (a scripted departure can race an organic crash); it is
        counted and warned about once per region so a scenario whose
        events mostly target corpses is visible.
        """
        phone = self.phones.get(phone_id)
        if phone is None or not phone.alive:
            if not self._warned_dead_departure:
                get_logger().warning(
                    "region %s: departure of dead/absent phone %r at "
                    "t=%.3fs is a no-op (warning once; see the "
                    "%s.departures_skipped_dead counter)",
                    self.name, phone_id, self.sim.now, self.name,
                )
                self._warned_dead_departure = True
            self.trace.count(f"{self.name}.departures_skipped_dead")
            return
        self.wifi.leave(phone_id)
        self.trace.record(self.sim.now, "phone_departed", region=self.name, phone=phone_id)
        if phone_id in self.idle_ids:
            # An idle node leaving just unregisters and wipes its copies.
            self.idle_ids.remove(phone_id)
            phone.storage.wipe()
            self.unregister_phone(phone_id)
            return
        if self.controller is not None:
            self.controller.on_departure_report(self, phone_id)

    def unregister_phone(self, phone_id: str) -> None:
        """A departed phone leaves the controller's books: it unregisters
        from cellular and drops out of ``phones`` and of the fleet
        battery sweep, which indexes ``phones`` at its next tick."""
        self.cellular.unregister(phone_id)
        self.phones.pop(phone_id, None)
        self._fleet_idx = None

    def pick_replacements(self, gone: List[str]) -> Optional[Dict[str, str]]:
        """Choose healthy phones to take over ``gone``'s operators.

        Idle nodes are preferred (Section III-D); computing phones cannot
        double up (an operator's replicas must stay on distinct phones).
        Returns None when the region lacks sufficient phones.
        """
        busy = set(self.placement.used_nodes()) - set(gone)
        candidates = (pid for pid in self.idle_ids if self.phones[pid].alive
                      and self.wifi.is_member(pid) and pid not in busy)
        picked = list(itertools.islice(candidates, len(gone)))
        if len(picked) < len(gone):
            return None
        return dict(zip(gone, picked))

    def promote_replacement(self, failed: str, replacement: str) -> None:
        """Bind ``replacement`` to all of ``failed``'s operators."""
        self.placement.reassign_node(failed, replacement)
        if replacement in self.idle_ids:
            self.idle_ids.remove(replacement)

    def rebuild_nodes(self, states: Optional[Dict[str, Dict]] = None) -> None:
        """Tear down every node runtime and rebuild from current placement.

        ``states`` maps node id (post-replacement) -> node state snapshot;
        nodes without an entry start from fresh operator state.  Sources
        resume ingestion from their persistent workload iterators.
        """
        for node in self.nodes.values():
            node.kill("rebuild")
        self.nodes.clear()
        self._build_nodes()
        if states:
            for node_id, state in states.items():
                node = self.nodes.get(node_id)
                if node is not None:
                    node.restore_state(state)
        self._start_sources()

    def build_single_node(self, phone_id: str, state: Optional[Dict] = None) -> NodeRuntime:
        """(Re)create the runtime on one phone from the current placement.

        Used by per-node recovery (local / dist-n): only the failed node is
        rebuilt; the rest of the region keeps running.
        """
        phone = self.phones[phone_id]
        if not phone.alive:
            raise RuntimeError(f"phone {phone_id} is dead")
        old = self.nodes.get(phone_id)
        if old is not None:
            old.kill("rebuild")
        ops: List[Tuple[Any, int]] = []
        for chain, graph in enumerate(self.graphs):
            for op_name, node_id in self.placement.chain_assignment(chain).items():
                if node_id == phone_id:
                    ops.append((graph.operator(op_name), chain))
        node = NodeRuntime(self, phone, ops)
        self.nodes[phone_id] = node
        if state:
            node.restore_state(state)
        return node

    def revive_phone(self, phone_id: str) -> None:
        """Reboot a crashed phone with its flash intact (``local`` scheme's
        explicitly-unrealistic fault model, Section IV-B scheme 3)."""
        phone = self.phones[phone_id]
        phone.alive = True
        self._join_networks(phone_id)
        self.trace.record(self.sim.now, "phone_rebooted", region=self.name, phone=phone_id)

    # -- liveness probes (Section III-D) ----------------------------------------
    def _heartbeat_loop(self):
        """Upstream nodes probe their downstream neighbours over WiFi."""
        while not self.stopped:
            yield self.sim.timeout(self.config.heartbeat_period_s)
            if self.paused or self.stopped:
                continue
            pairs: Set[Tuple[str, str]] = set()
            for chain in range(self.placement.replication_factor):
                assignment = self.placement.chain_assignment(chain)
                ng = self.graph.node_graph(assignment)
                pairs.update(ng.edges)
            for src, dst in sorted(pairs):
                src_node = self.nodes.get(src)
                if src_node is None or not src_node.alive:
                    continue
                yield from self._probe(src, dst)

    # -- energy (Section III-D: chronic-battery self-reports) --------------------
    def _battery_loop(self):
        """Drain idle power each tick; report chronic charge, crash dead.

        CPU draw is charged by the node runtime per unit of work and radio
        draw at send time; the receive-side radio cost is folded into the
        idle figure.  A phone whose battery reaches the chronic threshold
        "actively report[s] its own failure to the controller"; a phone
        whose battery empties crashes like any other failure.
        """
        tick = self.config.battery_tick_s
        if self._fleet is not None:
            yield from self._fleet_battery_loop(tick)
            return
        while not self.stopped:
            yield self.sim.timeout(tick)
            for pid, phone in list(self.phones.items()):
                if not phone.alive:
                    continue
                phone.battery.drain_idle(tick)
                if phone.battery.is_dead:
                    self.trace.record(
                        self.sim.now, "battery_dead", region=self.name, phone=pid
                    )
                    self.apply_crash(pid, reason="battery dead")
                elif phone.battery.is_critical and pid not in self._battery_reported:
                    self._battery_reported.add(pid)
                    self.trace.record(
                        self.sim.now, "battery_critical", region=self.name, phone=pid,
                        fraction=phone.battery.fraction,
                    )
                    if self.controller is not None and pid not in self.idle_ids:
                        self.controller.on_self_report(self, pid)

    def _fleet_battery_loop(self, tick: float):
        """Batch variant of the battery tick over the fleet arrays.

        The drains run as one vectorized sweep; only the phones the sweep
        flags (newly dead, newly critical) are visited in Python, in
        ascending fleet-index order — the same order the per-object loop
        reaches them, since region membership iterates in creation order.
        Critical phones that already reported are dropped in numpy first.
        """
        fleet = self._fleet
        while not self.stopped:
            yield self.sim.timeout(tick)
            if self._fleet_idx is None:
                self._fleet_idx = np.fromiter(
                    (p.index for p in self.phones.values()),
                    dtype=np.int64,
                    count=len(self.phones),
                )
                grow = len(fleet) - len(self._battery_flagged)
                if grow > 0:
                    self._battery_flagged = np.concatenate(
                        (self._battery_flagged, np.zeros(grow, dtype=bool)))
            flagged = self._battery_flagged
            dead, critical = fleet.sweep_battery(self._fleet_idx, tick)
            critical = critical[~flagged[critical]]
            if not (dead.size or critical.size):
                continue
            dead_set = set(dead.tolist())
            # Both arrays ascend and are disjoint: visit them in index order.
            for i in sorted(dead_set.union(critical.tolist())):
                pid = fleet.id_at(i)
                if i in dead_set:
                    self.trace.record(
                        self.sim.now, "battery_dead", region=self.name, phone=pid
                    )
                    self.apply_crash(pid, reason="battery dead")
                else:
                    flagged[i] = True
                    self.trace.record(
                        self.sim.now, "battery_critical", region=self.name, phone=pid,
                        fraction=fleet.phone_at(i).battery.fraction,
                    )
                    if self.controller is not None and pid not in self.idle_ids:
                        self.controller.on_self_report(self, pid)

    def _probe(self, src: str, dst: str):
        msg = Message(src=src, dst=dst, size=32, kind="heartbeat", payload=("hb",))
        try:
            yield from self.wifi.tcp_unicast(msg)
        except Unreachable:
            phone = self.phones.get(dst)
            if phone is not None and phone.alive:
                if self.controller is not None:
                    self.controller.on_departure_report(self, dst)
            else:
                if self.controller is not None:
                    self.controller.on_failure_report(self, dst, reporter=src)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Region {self.name} phones={len(self.phones)} nodes={len(self.nodes)}>"
