"""The server-based DSPS of Fig. 1(c): Table I's comparator deployment.

Phones are thin clients: every sensed datum (camera image, sensor
reading) is uploaded over the 3G uplink to a data center, where the
query network runs on servers connected by Ethernet.  Results return to
the phones over the downlink.

"The server-based DSPS is hindered by the low bandwidth of the uplink
cellular network.  The fault tolerance function has no impact on overall
performance" — so this model has no FT machinery at all; its throughput
ceiling is the uplink, exactly as in the paper.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional

from repro.core.app import AppSpec
from repro.core.graph import QueryGraph
from repro.core.metrics import MetricsReport, compute_metrics
from repro.core.operator import OperatorContext
from repro.core.tuples import StreamTuple
from repro.net.cellular import CellularConfig, CellularNetwork
from repro.net.ethernet import EthernetSwitch
from repro.net.packet import Message
from repro.sim.core import Simulator
from repro.sim.monitor import Trace
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry


@dataclass
class ServerDSPSConfig:
    """Data-center deployment parameters."""

    #: Servers available to the query network (round-robin placement).
    n_servers: int = 8
    #: Server speed relative to the reference phone CPU.  The paper notes
    #: a 2013 quad-core phone matches a 2006 server; the data center runs
    #: newer, faster machines.
    server_speed: float = 4.0
    server_cores: int = 4
    cellular: CellularConfig = field(default_factory=CellularConfig)
    #: Size of the result message returned to phones.
    result_size: int = 512
    master_seed: int = 0


class _ServerNode:
    """A server running one or more operators (no FT, no phones)."""

    def __init__(self, dsps: "ServerDSPS", server_id: str) -> None:
        self.dsps = dsps
        self.sim = dsps.sim
        self.id = server_id
        self.cpu = Resource(self.sim, capacity=dsps.config.server_cores)
        self._queue: Deque = deque()
        self._wake = None
        self.sim.process(self._loop(), name=f"{server_id}.loop").defuse()

    def deliver(self, msg: Message) -> None:
        self._queue.append(msg.payload)
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _loop(self):
        from repro.sim.events import Event

        while True:
            if not self._queue:
                self._wake = Event(self.sim)
                yield self._wake
                self._wake = None
                continue
            _kind, op_name, tup = self._queue.popleft()
            yield from self._process(op_name, tup)

    def _process(self, op_name: str, tup: StreamTuple):
        dsps = self.dsps
        op = dsps.graph.operator(op_name)
        cost = op.cost(tup) / dsps.config.server_speed
        if cost > 0:
            req = self.cpu.request()
            yield req
            try:
                yield self.sim.timeout(cost)
            finally:
                self.cpu.release(req)
        outputs = op.process(tup, dsps.operator_context())
        if op.is_sink:
            for out in outputs:
                dsps.on_sink_output(op_name, out)
            return
        downstream = dsps.graph.downstream_of(op_name)
        for out in outputs:
            for d_op in op.route(out, downstream):
                target = dsps.placement[d_op]
                if target == self.id:
                    yield from self._process(d_op, out)
                else:
                    dsps.send(self.id, target, d_op, out)


class ServerDSPS:
    """A runnable single-region server-based DSPS deployment."""

    def __init__(self, app: AppSpec, config: Optional[ServerDSPSConfig] = None) -> None:
        self.app = app
        self.config = config or ServerDSPSConfig()
        self.sim = Simulator()
        self.rng = RngRegistry(self.config.master_seed)
        self.trace = Trace()
        self._ctx = OperatorContext(now=0.0, rng=self.rng, region_name="dc")
        self.cellular = CellularNetwork(self.sim, self.rng, self.config.cellular, trace=self.trace)
        self.ethernet = EthernetSwitch(self.sim, trace=self.trace)
        self.graph: QueryGraph = app.build_graph()
        self.graph.validate()

        # Round-robin operator placement over the servers.
        self.servers: Dict[str, _ServerNode] = {}
        for i in range(self.config.n_servers):
            sid = f"server{i}"
            node = _ServerNode(self, sid)
            self.servers[sid] = node
            self.ethernet.attach(sid, node.deliver)
        self.placement: Dict[str, str] = {}
        for i, op_name in enumerate(self.graph.topological_order()):
            self.placement[op_name] = f"server{i % self.config.n_servers}"

        # DC ingress: one wired endpoint receiving uplink traffic.
        self.cellular.register_wired("dc", self._ingress)
        # Phones: one uploader per workload source.
        self._workloads = app.build_workloads(self.rng, 0)
        self._phone_ids: List[str] = []
        for k, op_name in enumerate(self._workloads):
            pid = f"sensor{k}"
            self._phone_ids.append(pid)
            self.cellular.register_phone(pid, lambda msg: None)
        self._started = False

    # -- plumbing ------------------------------------------------------------
    def operator_context(self) -> OperatorContext:
        """Context for ``Operator.process`` on the servers: the
        runtime's one context, stamped with the current time."""
        self._ctx.now = self.sim.now
        return self._ctx

    def send(self, src: str, dst: str, op_name: str, tup: StreamTuple) -> None:
        """Server-to-server tuple transfer over the switch."""
        msg = Message(src=src, dst=dst, size=tup.size, kind="tuple",
                      payload=("tuple", op_name, tup))
        self.sim.process(self.ethernet.send(msg), name="eth.tx").defuse()

    def _ingress(self, msg: Message) -> None:
        """Uplink data arriving at the data center."""
        _kind, op_name, tup = msg.payload
        target = self.placement[op_name]
        self.servers[target].deliver(
            Message(src="dc", dst=target, size=tup.size, kind="tuple",
                    payload=("tuple", op_name, tup))
        )

    def on_sink_output(self, op_name: str, tup: StreamTuple) -> None:
        """A result left the query network: record and return downlink."""
        self.trace.record(
            self.sim.now, "sink_output", region="dc", op=op_name,
            entered_at=tup.entered_at, latency=self.sim.now - tup.entered_at,
            seq=tup.source_seq,
        )
        if self._phone_ids:
            result = Message(
                src="dc", dst=self._phone_ids[0], size=self.config.result_size,
                kind="result", payload=("result",),
            )
            self.sim.process(self.cellular.send(result), name="dl.tx").defuse()

    def _uploader(self, phone_id: str, op_name: str, workload: Iterable):
        """The thin client: upload every sensed datum over the uplink.

        Uploads are sequential per phone — a phone has one radio; a
        backlog forms when sensing outpaces the uplink, which is precisely
        the Table I bottleneck.
        """
        seq = 0
        pending: Deque = deque()
        for wait, payload, size in workload:
            yield self.sim.timeout(wait)
            tup = StreamTuple(
                payload=payload, size=size, entered_at=self.sim.now,
                source_seq=seq, lineage=(f"dc.{op_name}", seq),
            )
            seq += 1
            pending.append(tup)
            # Drain as much of the backlog as the uplink allows before the
            # next sensing instant (non-blocking for the sensor itself).
            if len(pending) == 1:
                self.sim.process(
                    self._drain(phone_id, op_name, pending), name=f"{phone_id}.up"
                ).defuse()

    def _drain(self, phone_id: str, op_name: str, pending: Deque):
        while pending:
            tup = pending[0]
            msg = Message(src=phone_id, dst="dc", size=tup.size, kind="upload",
                          payload=("tuple", op_name, tup))
            yield from self.cellular.send(msg)
            pending.popleft()

    # -- running ------------------------------------------------------------
    def run(self, duration_s: float) -> None:
        """Start the uploaders (once) and advance virtual time."""
        if not self._started:
            self._started = True
            for pid, (op_name, workload) in zip(self._phone_ids, self._workloads.items()):
                self.sim.process(
                    self._uploader(pid, op_name, iter(workload)), name=f"{pid}.sensor"
                ).defuse()
        self.sim.run(until=self.sim.now + duration_s)

    def metrics(self, warmup_s: float = 0.0, until: Optional[float] = None) -> MetricsReport:
        """Throughput/latency report (single pseudo-region ``dc``)."""
        return compute_metrics(
            self.trace, ["dc"], warmup_s=warmup_s,
            until=until if until is not None else self.sim.now,
        )
