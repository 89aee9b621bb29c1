"""Cellular (3G) network: slow shared uplink, faster shared downlink.

Used for (Section III):

* phone ↔ controller control traffic (registration, pings, failure reports),
* inter-region tuple forwarding (sink of region i → source of region i+1),
* *urgent mode* tuple transport when WiFi links break (Section III-E),
* state transfer of a departing phone to its replacement.

The model: one uplink pipe and one downlink pipe shared by all phones
(max-min fair processor sharing, :class:`~repro.net.fairshare.FairSharePipe`),
with per-phone link-rate caps drawn from the paper's measured bands
(uplink 0.016∼0.32 Mbps, downlink 0.35∼1.14 Mbps).  A transfer from phone
A to phone B crosses uplink then downlink; endpoints that are not phones
(controller, data-center servers) sit behind the tower and only cross one
side.

This single shared-capacity abstraction yields both headline effects:
Table I's server-DSPS collapse (every camera image crosses the skinny
uplink) and Fig. 9's departure contention (n simultaneous state transfers
share the uplink).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.net.fairshare import FairSharePipe
from repro.net.packet import Message
from repro.util.units import Mbps

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.sim.monitor import Trace
    from repro.sim.rng import RngRegistry

DeliverFn = Callable[[Message], None]


class UnknownEndpoint(Exception):
    """Raised when sending to an id never registered with the network."""


@dataclass
class CellularConfig:
    """Cellular parameters (defaults from Section IV's measurements)."""

    #: Per-phone uplink rate band (bits/s). Paper: 0.016∼0.32 Mbps.
    uplink_phone_bps: Tuple[float, float] = (Mbps(0.016), Mbps(0.32))
    #: Per-phone downlink rate band (bits/s). Paper: 0.35∼1.14 Mbps.
    downlink_phone_bps: Tuple[float, float] = (Mbps(0.35), Mbps(1.14))
    #: Aggregate tower capacity per direction (bits/s).
    uplink_capacity_bps: float = Mbps(1.5)
    downlink_capacity_bps: float = Mbps(6.0)
    #: One-way latency (3G RTTs are long).
    latency_s: float = 0.08
    #: Per-message header overhead.
    header_bytes: int = 40

    def __post_init__(self) -> None:
        if self.uplink_capacity_bps <= 0 or self.downlink_capacity_bps <= 0:
            raise ValueError("capacities must be positive")
        for lo, hi in (self.uplink_phone_bps, self.downlink_phone_bps):
            if not 0 < lo <= hi:
                raise ValueError("phone rate bands must satisfy 0 < lo <= hi")


class CellularNetwork:
    """The cellular substrate shared by every phone and the controller."""

    def __init__(
        self,
        sim: "Simulator",
        rng: "RngRegistry",
        config: Optional[CellularConfig] = None,
        trace: Optional["Trace"] = None,
    ) -> None:
        self.sim = sim
        self.config = config or CellularConfig()
        self.trace = trace
        self.uplink = FairSharePipe(sim, self.config.uplink_capacity_bps)
        self.downlink = FairSharePipe(sim, self.config.downlink_capacity_bps)
        self._endpoints: Dict[Any, DeliverFn] = {}
        self._is_phone: Dict[Any, bool] = {}
        self._phone_rates: Dict[Any, Tuple[float, float]] = {}
        self._rng = rng.stream("cellular.rates")

    # -- registration ------------------------------------------------------
    def register_phone(self, phone_id: Any, deliver: DeliverFn) -> None:
        """Attach a phone; its link rates are drawn from the config bands."""
        self._endpoints[phone_id] = deliver
        self._is_phone[phone_id] = True
        if phone_id not in self._phone_rates:
            up_lo, up_hi = self.config.uplink_phone_bps
            dn_lo, dn_hi = self.config.downlink_phone_bps
            self._phone_rates[phone_id] = (
                float(self._rng.uniform(up_lo, up_hi)),
                float(self._rng.uniform(dn_lo, dn_hi)),
            )

    def register_wired(self, endpoint_id: Any, deliver: DeliverFn) -> None:
        """Attach a wired endpoint (controller, data-center ingress)."""
        self._endpoints[endpoint_id] = deliver
        self._is_phone[endpoint_id] = False

    def unregister(self, endpoint_id: Any) -> None:
        """Detach an endpoint (failed/departed phone)."""
        self._endpoints.pop(endpoint_id, None)

    def is_registered(self, endpoint_id: Any) -> bool:
        """Whether the endpoint can currently receive."""
        return endpoint_id in self._endpoints

    def phone_rates(self, phone_id: Any) -> Tuple[float, float]:
        """(uplink_bps, downlink_bps) caps assigned to a phone."""
        return self._phone_rates[phone_id]

    # -- transport ----------------------------------------------------------
    def send(self, msg: Message):
        """Process: reliably deliver ``msg.src`` → ``msg.dst``.

        Crosses the uplink when the source is a phone, the downlink when
        the destination is a phone; either leg is skipped for wired
        endpoints.  Raises :class:`UnknownEndpoint` for unknown ids (a
        failed phone is unknown: the 3G radio is dead).
        """
        if msg.src not in self._endpoints:
            raise UnknownEndpoint(f"source {msg.src} is not attached")
        if msg.dst not in self._endpoints:
            raise UnknownEndpoint(f"destination {msg.dst} is not attached")
        size = msg.size + self.config.header_bytes

        if self._is_phone.get(msg.src, False):
            up_cap = self._phone_rates[msg.src][0]
            yield self.uplink.transfer(size, cap_bps=up_cap)
        if self._is_phone.get(msg.dst, False):
            dn_cap = self._phone_rates[msg.dst][1]
            yield self.downlink.transfer(size, cap_bps=dn_cap)
        yield self.sim.timeout(self.config.latency_s)

        if self.trace is not None:
            self.trace.count("net.cellular.bytes", size)
        deliver = self._endpoints.get(msg.dst)
        if deliver is None:
            # Receiver disappeared mid-transfer: message is lost, but the
            # bandwidth was spent.
            return False
        deliver(msg)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CellularNetwork endpoints={len(self._endpoints)}>"
