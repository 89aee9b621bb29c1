"""DSPS core: operators, query graphs, nodes, regions, controller, system.

This package is the paper's "middleware": the distributed stream
processing system that runs on a cluster of phones in each region, plus
the two-level architecture that cascades regions over the cellular
network (Fig. 4).

Layering (bottom-up):

* :mod:`repro.core.tuples` — tuples and tokens.
* :mod:`repro.core.operator` — operator logic + cost models.
* :mod:`repro.core.graph` — the query network DAG.
* :mod:`repro.core.placement` — operators -> phones (with replication).
* :mod:`repro.core.node` — per-phone runtime: channels, CPU, dedup.
* :mod:`repro.core.region` — one region: phones + WiFi + nodes + router.
* :mod:`repro.core.controller` — the global (reliable) controller.
* :mod:`repro.core.system` — the full multi-region deployment.
* :mod:`repro.core.metrics` — throughput/latency extraction from traces.
"""

from repro.core.graph import QueryGraph
from repro.core.metrics import MetricsReport, compute_metrics
from repro.core.operator import (
    MapOperator,
    Operator,
    OperatorContext,
    SinkOperator,
    SourceOperator,
)
from repro.core.placement import Placement
from repro.core.region import Region, RegionConfig
from repro.core.system import MobiStreamsSystem, SystemConfig
from repro.core.tuples import StreamTuple, Token

__all__ = [
    "MapOperator",
    "MetricsReport",
    "MobiStreamsSystem",
    "Operator",
    "OperatorContext",
    "Placement",
    "QueryGraph",
    "Region",
    "RegionConfig",
    "SinkOperator",
    "SourceOperator",
    "StreamTuple",
    "SystemConfig",
    "Token",
    "compute_metrics",
]
