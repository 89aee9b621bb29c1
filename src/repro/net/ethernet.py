"""Data-center Ethernet: the server-DSPS interconnect of Fig. 1(c).

Servers in the baseline deployment talk over a high-bandwidth, lossless
switch.  We model each server's NIC as a max-min fair share of the switch
fabric; at data-center rates the network never bottlenecks the baseline —
exactly the paper's premise (the *cellular uplink* is the bottleneck).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.net.fairshare import FairSharePipe
from repro.net.packet import Message
from repro.util.units import Mbps

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.sim.monitor import Trace

DeliverFn = Callable[[Message], None]


class EthernetSwitch:
    """A non-blocking switch with per-port rate caps."""

    def __init__(
        self,
        sim: "Simulator",
        port_bps: float = Mbps(1000.0),
        fabric_bps: float = Mbps(16000.0),
        latency_s: float = 0.0002,
        trace: Optional["Trace"] = None,
    ) -> None:
        if port_bps <= 0 or fabric_bps <= 0:
            raise ValueError("rates must be positive")
        self.sim = sim
        self.port_bps = port_bps
        self.latency_s = latency_s
        self.trace = trace
        self.fabric = FairSharePipe(sim, fabric_bps)
        self._ports: Dict[Any, DeliverFn] = {}

    def attach(self, endpoint_id: Any, deliver: DeliverFn) -> None:
        """Plug a server into the switch."""
        self._ports[endpoint_id] = deliver

    def send(self, msg: Message):
        """Process: reliable delivery through the fabric."""
        if msg.dst not in self._ports:
            raise KeyError(f"unknown Ethernet endpoint {msg.dst!r}")
        yield self.fabric.transfer(msg.size, cap_bps=self.port_bps)
        yield self.sim.timeout(self.latency_s)
        if self.trace is not None:
            self.trace.count("net.ethernet.bytes", msg.size)
        deliver = self._ports.get(msg.dst)
        if deliver is not None:
            deliver(msg)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EthernetSwitch ports={len(self._ports)}>"
