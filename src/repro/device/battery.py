"""Battery model: energy budget drained by CPU, radio, and idle load.

The paper cites "limited battery" as a primary failure cause for phone
DSPS nodes; a node whose battery reaches the critical threshold *actively
reports* its own imminent failure to the controller (Section III-D).  The
model is a simple energy ledger — coarse, but enough to (a) cause organic
failures in long runs and (b) let the failure injector use battery
exhaustion as a realistic cause.

Power figures are order-of-magnitude for a 2010-era smartphone.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BatteryConfig:
    """Battery capacity and component power draws."""

    #: Usable energy in joules (iPhone 3GS: ~4.5 Wh ≈ 16 kJ).
    capacity_j: float = 16_000.0
    #: Baseline system draw, watts.
    idle_w: float = 0.15
    #: Additional draw while the CPU crunches, watts.
    cpu_w: float = 0.9
    #: Energy per byte over WiFi (J/B).
    wifi_j_per_byte: float = 6e-7
    #: Energy per byte over cellular (J/B) — radios cost more than WiFi.
    cellular_j_per_byte: float = 2.5e-6
    #: Fraction of capacity at which the phone reports chronic battery.
    critical_fraction: float = 0.03

    def __post_init__(self) -> None:
        if self.capacity_j <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= self.critical_fraction < 1.0:
            raise ValueError("critical_fraction must be in [0, 1)")


class Battery:
    """Energy ledger for one phone."""

    def __init__(self, config: BatteryConfig | None = None, charge_fraction: float = 1.0) -> None:
        self.config = config or BatteryConfig()
        if not 0.0 <= charge_fraction <= 1.0:
            raise ValueError("charge_fraction must be in [0, 1]")
        self.remaining_j = self.config.capacity_j * charge_fraction

    @property
    def fraction(self) -> float:
        """Remaining charge as a fraction of capacity."""
        return max(0.0, self.remaining_j / self.config.capacity_j)

    @property
    def is_critical(self) -> bool:
        """True once charge is at or below the chronic threshold."""
        return self.fraction <= self.config.critical_fraction

    @property
    def is_dead(self) -> bool:
        """True when no energy remains."""
        return self.remaining_j <= 0.0

    def drain(self, joules: float) -> None:
        """Remove ``joules`` (clamped at zero)."""
        if joules < 0:
            raise ValueError("cannot drain negative energy")
        remaining = self.remaining_j - joules
        self.remaining_j = remaining if remaining > 0.0 else 0.0

    def drain_idle(self, seconds: float) -> None:
        """Account baseline draw over ``seconds``."""
        self.drain(self.config.idle_w * seconds)

    def drain_cpu(self, seconds: float) -> None:
        """Account CPU-active draw over ``seconds`` (on top of idle)."""
        self.drain(self.config.cpu_w * seconds)

    def drain_wifi(self, n_bytes: float) -> None:
        """Account WiFi radio energy for ``n_bytes`` sent or received."""
        self.drain(self.config.wifi_j_per_byte * n_bytes)

    def drain_cellular(self, n_bytes: float) -> None:
        """Account cellular radio energy for ``n_bytes``."""
        self.drain(self.config.cellular_j_per_byte * n_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Battery {self.fraction * 100:.1f}%>"
