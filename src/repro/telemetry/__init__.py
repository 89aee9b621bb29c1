"""Live QoS telemetry: streaming per-operator metrics and timelines.

The paper's argument is about behavior *during* a run — throughput dips
at checkpoint rounds, recovery stalls after burst failures — and this
package is the layer that can see it happen: a
:class:`~repro.telemetry.monitor.QoSMonitor` hooks the sim kernel and
the operator runtime, maintains incremental windowed stats, and samples
them on a virtual-time interval into a schema-versioned
:class:`~repro.telemetry.timeline.Timeline` artifact that
``python -m repro watch`` renders live or from disk.  It is also the
substrate the ROADMAP's adaptive controllers (dynamic EdgeML split
selection, adaptive checkpoint intervals) will read from.

The metric namespace
--------------------
Post-hoc (:class:`~repro.core.metrics.MetricsReport`) and live
(:class:`~repro.telemetry.timeline.TelemetrySnapshot`) views share one
vocabulary; a name means the same thing wherever it appears.

======================  ================================================
name                    meaning
======================  ================================================
``events_processed``    simulator kernel events executed so far
                        (``Simulator.events_processed``; cumulative)
``throughput_tps``      sink outputs per second — windowed (since the
                        last sample) in snapshots, steady-state (post
                        warm-up) in reports
``latency_*_s``         sink-output end-to-end latency seconds: ``p50``/
                        ``p95``/``mean``; online fixed-bin estimates in
                        snapshots (:class:`~repro.telemetry.stats.
                        OnlineQuantile`), exact in reports
``queue_depth``         items waiting in a node's input channels *now*
``sink_outputs``        cumulative published results per region
                        (counter ``{region}.sink_outputs``)
``source_inputs``       cumulative sensor tuples ingested per region
                        (counter ``{region}.source_inputs``)
``checkpoints_*``       checkpoint rounds ``started`` (trace category
                        ``checkpoint_requested``) / ``committed``
                        (``checkpoint_complete``)
``recoveries``          finished recovery rounds (``recovery_finished``)
``crashes``             phone crashes observed (``phone_crashed``)
``*_bytes_per_s``       windowed transfer rates from the hot counters
                        ``net.wifi.bytes`` / ``net.cellular.bytes`` /
                        ``ft.network_bytes``
======================  ================================================

``MetricsReport.counters`` exposes the raw counter values under exactly
these counter names, so a live dashboard and a post-hoc report can be
diffed metric by metric.  None of this ever reaches a sweep artifact
row: rows keep the strict :mod:`repro.results.model` schema, and
timelines are a separate schema-versioned artifact.
"""

from repro.telemetry.monitor import QoSMonitor
from repro.telemetry.stats import OnlineQuantile, RateTracker
from repro.telemetry.timeline import (
    TIMELINE_SCHEMA_VERSION,
    NetSample,
    OperatorSample,
    RegionSample,
    TelemetrySnapshot,
    Timeline,
)
from repro.telemetry.watch import render_frame, render_progress_line, sparkline

__all__ = [
    "TIMELINE_SCHEMA_VERSION",
    "NetSample",
    "OnlineQuantile",
    "OperatorSample",
    "QoSMonitor",
    "RateTracker",
    "RegionSample",
    "TelemetrySnapshot",
    "Timeline",
    "render_frame",
    "render_progress_line",
    "sparkline",
]
