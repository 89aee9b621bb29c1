"""Mobility: when phones leave their regions.

Section III-E: a phone physically walking out of WiFi range breaks its
links; GPS tells the controller the phone is leaving, triggering urgent
mode, state transfer, and replacement.  Scripted departures at chosen
times (Fig. 9's "n nodes leave simultaneously", Table I's "a phone
leaves its region every five minutes") are scenario events
(``EventSpec(kind="depart")``); :class:`PoissonChurn` is the organic
churn model behind ``EventSpec(kind="churn")``.

The model *announces* departures through a callback; the region runtime
owns the consequences (breaking WiFi membership etc.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: Callback invoked as ``on_departure(phone_id)`` when a phone exits.
DepartureCallback = Callable[[str], None]


@dataclass
class PoissonChurn:
    """Organic churn: phones trickle out at exponential intervals.

    Rush-hour style mobility — each phone in ``phone_ids`` departs once,
    in listed order, with i.i.d. exponential gaps of mean
    ``mean_interval_s`` starting at ``start_at``.  Departures after
    ``until`` (if set) are dropped.  Fully deterministic for a given
    ``seed``, so scenario runs stay reproducible.
    """

    phone_ids: Sequence[str] = ()
    mean_interval_s: float = 60.0
    start_at: float = 0.0
    until: Optional[float] = None
    seed: int = 0

    def start(self, sim: "Simulator", on_departure: DepartureCallback) -> None:
        """Draw the departure times and schedule them.

        The draw is vectorized (one ``exponential(n)`` call instead of n
        scalar draws) but stream- and float-identical to the original
        scalar loop: PCG64 produces the same doubles either way, and
        seeding the cumsum with ``start_at`` makes the running sum
        associate in the same order as ``t += gap``.
        """
        n = len(self.phone_ids)
        if not n:
            return
        gen = np.random.default_rng(self.seed)
        gaps = gen.exponential(self.mean_interval_s, n)
        times = np.cumsum(np.concatenate(([float(self.start_at)], gaps)))[1:]
        for t, phone_id in zip(times, self.phone_ids):
            t = float(t)
            if self.until is not None and t > self.until:
                break
            sim.call_at(t, lambda pid=phone_id: on_departure(pid))
