"""MobiStreams reproduction: a reliable DSPS for (simulated) mobile devices.

Reproduces Wang & Peh, "MobiStreams: A Reliable Distributed Stream
Processing System for Mobile Devices", IPDPS 2014 — the full system
(token-triggered + broadcast-based checkpointing, recovery, mobility),
all four baseline fault-tolerance schemes, both driving applications,
and every table/figure of the evaluation, on a discrete-event simulation
of phones, ad-hoc WiFi, and cellular networks.

Quick tour::

    from repro import MobiStreamsSystem, SystemConfig
    from repro.apps import BCPApp
    from repro.checkpoint import MobiStreamsScheme

    system = MobiStreamsSystem(SystemConfig(), BCPApp(), MobiStreamsScheme)
    system.run(600.0)
    print(system.metrics(warmup_s=100.0).per_region["region0"])
"""

from repro.core.app import AppSpec
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
from repro.core.system import MobiStreamsSystem, SystemConfig
from repro.core.tuples import StreamTuple, Token

__version__ = "1.0.0"

__all__ = [
    "AppSpec",
    "MapOperator",
    "MetricsReport",
    "MobiStreamsSystem",
    "Operator",
    "OperatorContext",
    "Placement",
    "QueryGraph",
    "SinkOperator",
    "SourceOperator",
    "StreamTuple",
    "SystemConfig",
    "Token",
    "compute_metrics",
]
