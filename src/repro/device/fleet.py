"""Vectorized fleet state: struct-of-arrays device/battery storage.

At paper scale (tens of phones) one Python object per phone is fine.  At
fleet scale — the ROADMAP's 10k–1M idle spares churning through a region
— the per-phone objects themselves become the bottleneck: every battery
tick walks a Python loop over every phone, and every phone costs ~1 KB
of object headers before it stores a single float.

:class:`Fleet` keeps the numeric device state (battery ledger, power
draws, position, liveness) in flat numpy arrays and hands out
:class:`FleetPhone` / :class:`FleetBattery` proxies that duck-type the
classic :class:`~repro.device.phone.Phone` /
:class:`~repro.device.battery.Battery` API, so the node runtime, region
bookkeeping, and failure injector run unchanged.  Bulk work — idle-drain
ticks, liveness/critical sweeps, churn sampling — runs as batch array
ops over index slices instead of per-object method calls.

Float parity matters: a drain computed through a proxy and one computed
through a batch op must produce bit-identical IEEE-754 results, so the
object and fleet backends can be compared event-for-event at small n
(see ``tests/device/test_fleet.py``).  Every batch op mirrors the scalar
arithmetic exactly: same operand order, same clamps, float64 throughout.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.device.battery import BatteryConfig
from repro.device.phone import PhoneConfig
from repro.device.storage import FlashStorage
from repro.net.topology import Position

#: Initial array capacity; grown geometrically.
_INITIAL_CAPACITY = 64


class Fleet:
    """Struct-of-arrays storage for a population of phones.

    One Fleet instance backs a whole system (phones keep globally unique
    ids); regions slice into it with index arrays.  Phones are never
    removed — like the object backend, departed/crashed phones simply
    stop being referenced — so indices are stable for a phone's lifetime.
    """

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        capacity = max(int(capacity), 1)
        self.n = 0
        # Battery ledger + power draws (float64 for scalar parity).
        self.remaining_j = np.zeros(capacity)
        self.capacity_j = np.zeros(capacity)
        self.idle_w = np.zeros(capacity)
        self.cpu_w = np.zeros(capacity)
        self.wifi_j_per_byte = np.zeros(capacity)
        self.cellular_j_per_byte = np.zeros(capacity)
        self.critical_fraction = np.zeros(capacity)
        self.cpu_speed = np.zeros(capacity)
        self.alive = np.zeros(capacity, dtype=bool)
        self.pos_x = np.zeros(capacity)
        self.pos_y = np.zeros(capacity)
        # Per-phone Python-side state (ids, configs, lazy proxies).
        self._ids: List[str] = []
        self._configs: List[PhoneConfig] = []
        self._phones: List["FleetPhone"] = []
        self._index: dict = {}
        # Default-configured phones share one PhoneConfig: the numeric
        # fields already live in the arrays, and a fresh config dataclass
        # per phone would cost more than the phone's whole array slot.
        self._default_config = PhoneConfig()

    def __len__(self) -> int:
        return self.n

    # -- population ------------------------------------------------------
    def _grow(self) -> None:
        new_cap = max(len(self.remaining_j) * 2, _INITIAL_CAPACITY)
        for name in (
            "remaining_j",
            "capacity_j",
            "idle_w",
            "cpu_w",
            "wifi_j_per_byte",
            "cellular_j_per_byte",
            "critical_fraction",
            "cpu_speed",
            "alive",
            "pos_x",
            "pos_y",
        ):
            old = getattr(self, name)
            grown = np.zeros(new_cap, dtype=old.dtype)
            grown[: self.n] = old[: self.n]
            setattr(self, name, grown)

    def create_phone(
        self,
        phone_id: str,
        position: Position,
        config: Optional[PhoneConfig] = None,
        charge_fraction: float = 1.0,
    ) -> "FleetPhone":
        """Register a phone and return its proxy (same signature as Phone)."""
        if phone_id in self._index:
            raise ValueError(f"phone id {phone_id!r} already in fleet")
        if not 0.0 <= charge_fraction <= 1.0:
            raise ValueError("charge_fraction must be in [0, 1]")
        config = config or self._default_config
        if self.n == len(self.remaining_j):
            self._grow()
        i = self.n
        battery = config.battery
        self.remaining_j[i] = battery.capacity_j * charge_fraction
        self.capacity_j[i] = battery.capacity_j
        self.idle_w[i] = battery.idle_w
        self.cpu_w[i] = battery.cpu_w
        self.wifi_j_per_byte[i] = battery.wifi_j_per_byte
        self.cellular_j_per_byte[i] = battery.cellular_j_per_byte
        self.critical_fraction[i] = battery.critical_fraction
        self.cpu_speed[i] = config.cpu_speed
        self.alive[i] = True
        self.pos_x[i] = position.x
        self.pos_y[i] = position.y
        self.n = i + 1
        phone = FleetPhone(self, i, phone_id, config)
        self._ids.append(phone_id)
        self._configs.append(config)
        self._phones.append(phone)
        self._index[phone_id] = i
        return phone

    def id_at(self, index: int) -> str:
        """Phone id for a fleet index."""
        return self._ids[index]

    def phone_at(self, index: int) -> "FleetPhone":
        """Proxy for a fleet index."""
        return self._phones[index]

    # -- batch ops -------------------------------------------------------

    def sweep_battery(
        self, indices: np.ndarray, seconds: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One battery tick: idle-drain + liveness/critical sweep.

        Returns ``(newly_dead, critical)`` fleet-index arrays, each in
        ascending index order (== phone creation order, matching the
        object backend's dict-iteration order).  ``critical`` excludes
        the dead, mirroring the scalar ``is_dead``/``elif is_critical``
        ladder.
        """
        sel = indices[self.alive[indices]]
        rem = self.remaining_j
        drained = np.maximum(rem[sel] - self.idle_w[sel] * seconds, 0.0)
        rem[sel] = drained
        dead = drained <= 0.0
        # fraction = max(0, rem/cap); for live phones rem > 0 so the
        # clamp is moot, and dead ones are excluded by ~dead.
        critical = ~dead & (drained / self.capacity_j[sel] <= self.critical_fraction[sel])
        return sel[dead], sel[critical]


class FleetBattery:
    """Battery proxy over one fleet slot; duck-types :class:`Battery`."""

    __slots__ = ("fleet", "index")

    def __init__(self, fleet: Fleet, index: int) -> None:
        self.fleet = fleet
        self.index = index

    @property
    def config(self) -> BatteryConfig:
        return self.fleet._configs[self.index].battery

    @property
    def remaining_j(self) -> float:
        return float(self.fleet.remaining_j[self.index])

    @remaining_j.setter
    def remaining_j(self, value: float) -> None:
        self.fleet.remaining_j[self.index] = value

    @property
    def fraction(self) -> float:
        return max(0.0, self.remaining_j / float(self.fleet.capacity_j[self.index]))

    @property
    def is_critical(self) -> bool:
        return self.fraction <= float(self.fleet.critical_fraction[self.index])

    @property
    def is_dead(self) -> bool:
        return self.remaining_j <= 0.0

    def drain(self, joules: float) -> None:
        if joules < 0:
            raise ValueError("cannot drain negative energy")
        arr = self.fleet.remaining_j
        arr[self.index] = max(0.0, float(arr[self.index]) - joules)

    def drain_idle(self, seconds: float) -> None:
        self.drain(float(self.fleet.idle_w[self.index]) * seconds)

    def drain_cpu(self, seconds: float) -> None:
        self.drain(float(self.fleet.cpu_w[self.index]) * seconds)

    def drain_wifi(self, n_bytes: float) -> None:
        self.drain(float(self.fleet.wifi_j_per_byte[self.index]) * n_bytes)

    def drain_cellular(self, n_bytes: float) -> None:
        self.drain(float(self.fleet.cellular_j_per_byte[self.index]) * n_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FleetBattery {self.fraction * 100:.1f}%>"


class FleetPhone:
    """Phone proxy over one fleet slot; duck-types :class:`Phone`.

    Numeric state lives in the fleet arrays; the flash storage object is
    created lazily (idle spares never touch flash, and an eager
    FlashStorage per phone would defeat the memory win).
    """

    __slots__ = ("fleet", "index", "id", "config", "_battery", "_storage")

    def __init__(
        self, fleet: Fleet, index: int, phone_id: str, config: PhoneConfig
    ) -> None:
        self.fleet = fleet
        self.index = index
        self.id = phone_id
        self.config = config
        self._battery: Optional[FleetBattery] = None
        self._storage: Optional[FlashStorage] = None

    @property
    def battery(self) -> FleetBattery:
        if self._battery is None:
            self._battery = FleetBattery(self.fleet, self.index)
        return self._battery

    @property
    def storage(self) -> FlashStorage:
        if self._storage is None:
            self._storage = FlashStorage(self.config.storage_bytes)
        return self._storage

    @property
    def alive(self) -> bool:
        return bool(self.fleet.alive[self.index])

    @alive.setter
    def alive(self, value: bool) -> None:
        self.fleet.alive[self.index] = value

    @property
    def position(self) -> Position:
        return Position(
            float(self.fleet.pos_x[self.index]), float(self.fleet.pos_y[self.index])
        )

    @position.setter
    def position(self, value: Position) -> None:
        self.fleet.pos_x[self.index] = value.x
        self.fleet.pos_y[self.index] = value.y

    # -- compute ---------------------------------------------------------
    def compute_time(self, reference_seconds: float) -> float:
        if reference_seconds < 0:
            raise ValueError("work must be >= 0")
        return reference_seconds / self.config.cpu_speed

    # -- lifecycle -------------------------------------------------------
    def crash(self) -> None:
        """Hard failure (see :meth:`Phone.crash`)."""
        self.fleet.alive[self.index] = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "dead"
        return f"<FleetPhone {self.id} {state} battery={self.battery.fraction:.0%}>"


__all__ = ["Fleet", "FleetBattery", "FleetPhone"]
