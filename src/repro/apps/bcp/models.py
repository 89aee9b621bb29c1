"""BCP's statistical prediction models.

"The prediction is based on statistical models for boarding/alighting
passengers at each bus stop, collected via two live real-time data
sources" (Section II-B).  Each model is a small online estimator whose
*reported* state size models the historical statistics a real deployment
accumulates (time-of-day histograms, per-stop regressions) — the paper's
per-node checkpoint state.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.checkpoint import snapshots


def clip(x: float, lo: float, hi: float) -> float:
    """``float(np.clip(x, lo, hi))`` of a scalar without numpy's dispatch.

    The same value for every float, -0.0 and NaN included: ``max`` and
    ``min`` keep their first argument on a tie or an unordered compare,
    as numpy's clip keeps ``x``.
    """
    return min(max(float(x), lo), hi)


class OnlineStats:
    """Exponentially-weighted mean/variance (the shared estimator core)."""

    def __init__(self, alpha: float = 0.2, initial: float = 0.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.mean = float(initial)
        self.var = 1.0
        self.count = 0

    def update(self, x: float) -> None:
        """Fold one observation into the estimate."""
        self.count += 1
        delta = x - self.mean
        self.mean += self.alpha * delta
        self.var = (1 - self.alpha) * (self.var + self.alpha * delta * delta)

    def snapshot(self) -> Dict[str, float]:
        """Serializable state (scalar-only: already a cheap frozen view)."""
        return snapshots.freeze_state(
            {"alpha": self.alpha, "mean": self.mean, "var": self.var, "count": self.count}
        )

    def restore(self, state: Optional[Dict[str, float]]) -> None:
        """Reset from :meth:`snapshot` output (None = fresh)."""
        if state is None:
            self.mean, self.var, self.count = 0.0, 1.0, 0
        else:
            self.alpha = state["alpha"]
            self.mean = state["mean"]
            self.var = state["var"]
            self.count = int(state["count"])


class BoardingModel(OnlineStats):
    """Predicts boarding passengers from the waiting-crowd count.

    Learns the boarding *fraction* (not everyone waiting boards this
    line's bus) from observed (waiting, boarded) pairs.
    """

    def __init__(self) -> None:
        super().__init__(alpha=0.15, initial=0.7)
        self.mean = 0.7  # prior boarding fraction

    def predict(self, waiting_count: float) -> float:
        """Expected boarders given the counted waiting crowd."""
        return max(0.0, waiting_count * clip(self.mean, 0.0, 1.0))

    def observe(self, waiting_count: float, boarded: float) -> None:
        """Learn from ground truth when the bus actually leaves."""
        if waiting_count > 0:
            self.update(boarded / waiting_count)


class AlightingModel(OnlineStats):
    """Predicts the fraction of on-bus passengers alighting at this stop."""

    def __init__(self) -> None:
        super().__init__(alpha=0.15, initial=0.25)
        self.mean = 0.25

    def predict(self, on_bus: float) -> float:
        """Expected alighting passengers."""
        return max(0.0, on_bus * clip(self.mean, 0.0, 1.0))

    def observe(self, on_bus: float, alighted: float) -> None:
        """Learn from observed alightings."""
        if on_bus > 0:
            self.update(alighted / on_bus)


class ArrivalTimeModel(OnlineStats):
    """Predicts the bus's travel time from the previous stop (seconds)."""

    def __init__(self, prior_s: float = 120.0) -> None:
        super().__init__(alpha=0.2, initial=prior_s)
        self.mean = prior_s

    def predict(self) -> float:
        """Expected inter-stop travel time."""
        return max(10.0, self.mean)

    def observe(self, travel_s: float) -> None:
        """Learn from a completed leg."""
        self.update(travel_s)


class CapacityModel:
    """Combines the pieces into the headline prediction.

    capacity_next = on_bus - alighting + boarding, clamped to the
    vehicle's physical capacity.
    """

    def __init__(self, max_capacity: int = 60) -> None:
        if max_capacity <= 0:
            raise ValueError("capacity must be positive")
        self.max_capacity = max_capacity

    def predict(self, on_bus: float, alighting: float, boarding: float) -> float:
        """Passengers on board when the bus leaves this stop."""
        return clip(on_bus - alighting + boarding, 0.0, float(self.max_capacity))

    def snapshot(self) -> Dict[str, Any]:
        """Serializable state."""
        return {"max_capacity": self.max_capacity}

    def restore(self, state: Optional[Dict[str, Any]]) -> None:
        """Reset from snapshot."""
        if state is not None:
            self.max_capacity = int(state["max_capacity"])
