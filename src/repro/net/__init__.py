"""Network substrate: ad-hoc WiFi, cellular, and data-center Ethernet.

The paper's protocols live or die on three network properties, all modelled
here:

* **Ad-hoc WiFi is a shared, half-duplex broadcast medium** — one
  transmission at a time per region, but a single transmission reaches
  every phone in range.  This is why MobiStreams' UDP *broadcast*
  checkpointing beats dist-n's *unicast* copies
  (:class:`~repro.net.wifi.WifiCell`).
* **UDP datagrams are lost independently per receiver** with rates that can
  be bursty (:mod:`repro.net.loss`).
* **The cellular uplink is slow and shared** — the server-DSPS bottleneck
  of Table I and the departure-contention effect of Fig. 9
  (:class:`~repro.net.cellular.CellularNetwork`,
  :class:`~repro.net.fairshare.FairSharePipe`).
"""

from repro.net.cellular import CellularConfig, CellularNetwork
from repro.net.ethernet import EthernetSwitch
from repro.net.fairshare import FairSharePipe, max_min_fair_rates
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel, NoLoss
from repro.net.packet import Message
from repro.net.topology import Position, RegionArea, distance
from repro.net.wifi import BroadcastRoundResult, WifiCell, WifiConfig

__all__ = [
    "BernoulliLoss",
    "BroadcastRoundResult",
    "CellularConfig",
    "CellularNetwork",
    "EthernetSwitch",
    "FairSharePipe",
    "GilbertElliottLoss",
    "LossModel",
    "Message",
    "NoLoss",
    "Position",
    "RegionArea",
    "WifiCell",
    "WifiConfig",
    "distance",
    "max_min_fair_rates",
]
