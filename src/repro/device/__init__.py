"""Device substrate: smartphones, batteries, storage, mobility, failures.

The paper's platform is a fleet of iPhone 3GSs (600 MHz Cortex-A8, 256 MB
RAM, 16 GB flash).  Phones differ from servers in exactly the ways this
package models:

* limited, drainable **battery** — the dominant failure cause,
* modest **CPU** — operator compute costs scale with CPU speed,
* **mobility** — phones physically leave regions (Section III-E),
* **burst failures** — several phones can die or depart simultaneously,
  the failure model prior DSPS work does not handle (Section I).
"""

from repro.device.battery import Battery, BatteryConfig
from repro.device.fleet import Fleet, FleetBattery, FleetPhone
from repro.device.failures import (
    FailureEvent,
    FailureInjector,
    PhoneFailure,
)
from repro.device.phone import Phone, PhoneConfig
from repro.device.storage import FlashStorage

__all__ = [
    "Battery",
    "BatteryConfig",
    "FailureEvent",
    "FailureInjector",
    "Fleet",
    "FleetBattery",
    "FleetPhone",
    "FlashStorage",
    "Phone",
    "PhoneConfig",
    "PhoneFailure",
]
