"""The smartphone: CPU, battery, flash, and liveness.

A :class:`Phone` is a passive container of device state; the DSPS node
runtime (:mod:`repro.core.node`) drives it.  CPU work is expressed in
*reference seconds* — the time the work would take on the reference device
(an iPhone 3GS-class 600 MHz core); a faster phone divides by its
``cpu_speed`` multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.device.battery import Battery, BatteryConfig
from repro.device.storage import FlashStorage
from repro.net.topology import Position
from repro.util.units import GB


@dataclass
class PhoneConfig:
    """Hardware parameters (defaults: the paper's iPhone 3GS)."""

    #: Compute speed relative to the reference device (1.0 = iPhone 3GS).
    cpu_speed: float = 1.0
    #: Number of cores able to run operators concurrently.
    cores: int = 1
    #: Flash capacity.
    storage_bytes: int = 16 * GB
    #: Battery parameters.
    battery: BatteryConfig = field(default_factory=BatteryConfig)

    def __post_init__(self) -> None:
        if self.cpu_speed <= 0:
            raise ValueError("cpu_speed must be positive")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")


class Phone:
    """One smartphone."""

    def __init__(
        self,
        phone_id: str,
        position: Position,
        config: Optional[PhoneConfig] = None,
        charge_fraction: float = 1.0,
    ) -> None:
        self.id = phone_id
        self.position = position
        self.config = config or PhoneConfig()
        self.battery = Battery(self.config.battery, charge_fraction)
        self.storage = FlashStorage(self.config.storage_bytes)
        #: False once the phone has crashed (battery death, failure
        #: injection); a dead phone never comes back with its state.
        self.alive = True

    # -- compute -----------------------------------------------------------
    def compute_time(self, reference_seconds: float) -> float:
        """Virtual seconds this phone needs for ``reference_seconds`` of work."""
        if reference_seconds < 0:
            raise ValueError("work must be >= 0")
        return reference_seconds / self.config.cpu_speed

    # -- lifecycle ------------------------------------------------------------
    def crash(self) -> None:
        """Hard failure: the phone stops and its volatile state is lost.

        Flash contents survive a crash, but (matching the paper's fault
        model for the *dist*/*ms* schemes) a crashed phone does not rejoin,
        so its local data is unreachable — with the notable exception of
        the unrealistic ``local`` baseline, which assumes reboot + intact
        storage.
        """
        self.alive = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "dead"
        return f"<Phone {self.id} {state} battery={self.battery.fraction:.0%}>"
