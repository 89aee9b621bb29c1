"""Metrics extraction: throughput, latency, fault-tolerance data volumes.

Section IV's measurement methodology, applied to the trace:

* *Latency* — "we record in each tuple the times when it enters and
  leaves the system, and average the duration across all the tuples in a
  time window."
* *Throughput* — "we count the number of output tuples per second when
  the system is steady" (we cut an initial warm-up window).
* Fig. 10's data volumes come from the scheme counters
  ``ft.preserved_bytes`` and ``ft.network_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.util.stats import mean, nearest_rank

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.monitor import Trace


@dataclass
class RegionMetrics:
    """Steady-state measurements for one region."""

    region: str
    output_tuples: int
    throughput_tps: float
    mean_latency_s: float
    p95_latency_s: float


@dataclass
class MetricsReport:
    """Whole-system measurements over a window."""

    window_start: float
    window_end: float
    per_region: Dict[str, RegionMetrics] = field(default_factory=dict)
    #: Fig. 10a — unique bytes retained for input/source preservation.
    preserved_bytes: float = 0.0
    #: Fig. 10b — bytes sent over the network for checkpointing/replication.
    ft_network_bytes: float = 0.0
    #: Total WiFi / cellular airtime bytes (diagnostics).
    wifi_bytes: float = 0.0
    cellular_bytes: float = 0.0
    recoveries: int = 0
    departures_handled: int = 0
    #: Simulator kernel events executed over the whole run (0 when the
    #: report was computed without a live simulator); same name as the
    #: telemetry snapshots' field — see :mod:`repro.telemetry`.
    events_processed: int = 0
    #: Raw hot-counter snapshot (``net.*``, ``ft.*``, per-region
    #: counters), filled by :meth:`MobiStreamsSystem.metrics`.  Live
    #: diagnostics only — never serialized into artifact rows.
    counters: Dict[str, float] = field(default_factory=dict)

    def region(self, name: str) -> RegionMetrics:
        """Metrics of one region by name.

        Unknown names raise :class:`ValueError` listing the regions the
        report actually measured — the error a typo'd region name in a
        bench or report surfaces.
        """
        try:
            return self.per_region[name]
        except KeyError:
            known = ", ".join(self.per_region) or "<none>"
            raise ValueError(
                f"unknown region {name!r}; regions in this report: {known}"
            ) from None

    @property
    def end_to_end_latency_s(self) -> float:
        """Mean latency at the final (cascade-terminal) region.

        Regions are keyed in cascade order; the last region's sink sees
        tuples whose ``entered_at`` was stamped at the first region, so its
        latency *is* end-to-end.
        """
        if not self.per_region:
            return float("nan")
        last = list(self.per_region.values())[-1]
        return last.mean_latency_s


def compute_metrics(
    trace: "Trace",
    region_names: List[str],
    warmup_s: float = 0.0,
    until: Optional[float] = None,
) -> MetricsReport:
    """Build a :class:`MetricsReport` from a trace.

    Parameters
    ----------
    trace:
        The run's trace (must have been recording).
    region_names:
        Regions in cascade order.
    warmup_s:
        Ignore sink outputs before this time (steady-state cut).
    until:
        End of the measurement window (defaults to the last record time).
    """
    if until is None:
        until = trace.records[-1].time if trace.records else warmup_s
    window = max(1e-9, until - warmup_s)

    report = MetricsReport(window_start=warmup_s, window_end=until)
    # One pass over the sink_output window for every region at once; the
    # per-region record order is unchanged, so the derived statistics are
    # identical to the old region-by-region scans.
    by_region: Dict[str, List[float]] = {name: [] for name in region_names}
    for rec in trace.select("sink_output", since=warmup_s, until=until):
        bucket = by_region.get(rec.data.get("region"))
        if bucket is not None:
            bucket.append(rec.data["latency"])
    for name in region_names:
        latencies = by_region[name]
        count = len(latencies)
        lat_sorted = sorted(latencies)
        p95 = nearest_rank(lat_sorted, 0.95) if lat_sorted else float("nan")
        report.per_region[name] = RegionMetrics(
            region=name,
            output_tuples=count,
            throughput_tps=count / window,
            mean_latency_s=mean(latencies),
            p95_latency_s=p95,
        )

    report.preserved_bytes = trace.value("ft.preserved_bytes")
    report.ft_network_bytes = trace.value("ft.network_bytes")
    report.wifi_bytes = trace.value("net.wifi.bytes")
    report.cellular_bytes = trace.value("net.cellular.bytes")
    report.recoveries = trace.count_of("recovery_finished")
    report.departures_handled = trace.count_of("departure_handled")
    return report
