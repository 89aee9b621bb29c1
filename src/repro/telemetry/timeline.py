"""The timeline artifact: a schema-versioned sequence of QoS snapshots.

A :class:`Timeline` is to live telemetry what
:class:`repro.results.ResultSet` is to sweep rows: the typed,
loadable, queryable form of one case's sampled run.  Like the results
model, this module is pure data — it must stay loadable without
importing any simulation code — and timeline files are read and
written through the one artifact codec, :mod:`repro.results.io`, so
serial, parallel, and resumed sweeps write byte-identical timeline
files.

Schema (version 1)::

    {
      "schema_version": 1,
      "kind": "qos-timeline",
      "scenario": ..., "app": ..., "scheme": ..., "seed": ...,
      "interval_s": 10.0,
      "snapshots": [
        {"time": ..., "events_processed": ...,
         "regions":   {"region0": {"throughput_tps": ..., ...}},
         "operators": {"region0.S": {"tuples": ..., ...}},
         "net":       {"wifi_bytes_per_s": ..., ...}},
        ...
      ]
    }

Loaders are strict: unknown keys and unsupported schema versions raise
``ValueError`` instead of silently dropping data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.results.io import load_artifact

#: Version written by this code; loaders reject anything else.
TIMELINE_SCHEMA_VERSION = 1
#: Artifact discriminator (a sweep row file is not a timeline).
TIMELINE_KIND = "qos-timeline"


def _check_keys(data: Mapping[str, Any], required: Tuple[str, ...],
                optional: Tuple[str, ...], what: str) -> None:
    missing = [k for k in required if k not in data]
    unknown = [k for k in data if k not in required and k not in optional]
    if missing:
        raise ValueError(f"{what}: missing keys {sorted(missing)}")
    if unknown:
        raise ValueError(f"{what}: unknown keys {sorted(unknown)}")


def _dataclass_from_dict(cls, data: Mapping[str, Any], what: str):
    names = tuple(f.name for f in fields(cls))
    _check_keys(data, names, (), what)
    return cls(**data)


@dataclass(frozen=True)
class OperatorSample:
    """One operator's stats at one sampling instant."""

    #: Tuples completed by this operator since the run began.
    tuples: int
    #: Completion rate over the sampling window (tuples/s).
    rate_tps: float
    #: Input items queued on the operator's host node right now.
    queue_depth: int

    def to_dict(self) -> Dict[str, Any]:
        return {"tuples": self.tuples, "rate_tps": self.rate_tps,
                "queue_depth": self.queue_depth}


@dataclass(frozen=True)
class RegionSample:
    """One region's stats at one sampling instant."""

    #: Sink-output rate over the sampling window (tuples/s).
    throughput_tps: float
    #: Online latency quantiles over all sink outputs so far (None
    #: before the first output reaches a sink).
    latency_p50_s: Optional[float]
    latency_p95_s: Optional[float]
    latency_mean_s: Optional[float]
    #: Cumulative counts since the run began.
    sink_outputs: int
    source_inputs: int
    checkpoints_started: int
    checkpoints_committed: int
    recoveries: int
    crashes: int

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class NetSample:
    """Per-network transfer rates over the sampling window (bytes/s)."""

    wifi_bytes_per_s: float
    cellular_bytes_per_s: float
    ft_bytes_per_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class TelemetrySnapshot:
    """The whole system's QoS state at one virtual-time instant."""

    time: float
    #: Simulator kernel events processed so far (shares its name with
    #: ``MetricsReport.events_processed`` — see the namespace doc in
    #: :mod:`repro.telemetry`).
    events_processed: int
    regions: Dict[str, RegionSample] = field(default_factory=dict)
    operators: Dict[str, OperatorSample] = field(default_factory=dict)
    net: NetSample = field(
        default_factory=lambda: NetSample(0.0, 0.0, 0.0))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "events_processed": self.events_processed,
            "regions": {k: v.to_dict() for k, v in self.regions.items()},
            "operators": {k: v.to_dict() for k, v in self.operators.items()},
            "net": self.net.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TelemetrySnapshot":
        _check_keys(data, ("time", "events_processed", "regions",
                           "operators", "net"), (), "snapshot")
        return cls(
            time=data["time"],
            events_processed=data["events_processed"],
            regions={k: _dataclass_from_dict(RegionSample, v, f"region {k!r}")
                     for k, v in data["regions"].items()},
            operators={k: _dataclass_from_dict(OperatorSample, v,
                                               f"operator {k!r}")
                       for k, v in data["operators"].items()},
            net=_dataclass_from_dict(NetSample, data["net"], "net"),
        )


@dataclass(frozen=True)
class Timeline:
    """A full case timeline: identity plus the snapshot sequence."""

    scenario: str
    app: str
    scheme: str
    seed: int
    interval_s: float
    snapshots: Tuple[TelemetrySnapshot, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "snapshots", tuple(self.snapshots))

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self):
        return iter(self.snapshots)

    @property
    def final(self) -> Optional[TelemetrySnapshot]:
        """The last snapshot (None for an empty timeline)."""
        return self.snapshots[-1] if self.snapshots else None

    def region_names(self) -> List[str]:
        """Region names, cascade order (from the first snapshot)."""
        return list(self.snapshots[0].regions) if self.snapshots else []

    def operator_names(self) -> List[str]:
        """Operator keys (``region0.S``), stable graph order."""
        return list(self.snapshots[0].operators) if self.snapshots else []

    def series(self, metric: str, region: Optional[str] = None,
               operator: Optional[str] = None) -> List[Tuple[float, Any]]:
        """``(time, value)`` pairs of one metric across the timeline.

        Exactly one scope must be picked: ``region=`` reads a
        :class:`RegionSample` field, ``operator=`` an
        :class:`OperatorSample` field, and neither reads a snapshot-level
        field (``events_processed``, or a :class:`NetSample` field).
        """
        if region is not None and operator is not None:
            raise ValueError("pick region= or operator=, not both")
        out: List[Tuple[float, Any]] = []
        for snap in self.snapshots:
            if region is not None:
                sample = snap.regions.get(region)
                if sample is None:
                    known = ", ".join(snap.regions) or "<none>"
                    raise ValueError(
                        f"unknown region {region!r}; have: {known}")
                out.append((snap.time, getattr(sample, metric)))
            elif operator is not None:
                osample = snap.operators.get(operator)
                if osample is None:
                    known = ", ".join(snap.operators) or "<none>"
                    raise ValueError(
                        f"unknown operator {operator!r}; have: {known}")
                out.append((snap.time, getattr(osample, metric)))
            elif hasattr(snap.net, metric):
                out.append((snap.time, getattr(snap.net, metric)))
            else:
                out.append((snap.time, getattr(snap, metric)))
        return out

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict, the schema documented at module top."""
        return {
            "schema_version": TIMELINE_SCHEMA_VERSION,
            "kind": TIMELINE_KIND,
            "scenario": self.scenario,
            "app": self.app,
            "scheme": self.scheme,
            "seed": self.seed,
            "interval_s": self.interval_s,
            "snapshots": [s.to_dict() for s in self.snapshots],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Timeline":
        """Strict inverse of :meth:`to_dict` (version-checked)."""
        _check_keys(data, ("schema_version", "kind", "scenario", "app",
                           "scheme", "seed", "interval_s", "snapshots"),
                    (), "timeline")
        version = data["schema_version"]
        if version != TIMELINE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported timeline schema_version {version!r} "
                f"(this build reads version {TIMELINE_SCHEMA_VERSION})")
        if data["kind"] != TIMELINE_KIND:
            raise ValueError(
                f"not a timeline artifact (kind={data['kind']!r})")
        return cls(
            scenario=data["scenario"],
            app=data["app"],
            scheme=data["scheme"],
            seed=data["seed"],
            interval_s=data["interval_s"],
            snapshots=tuple(TelemetrySnapshot.from_dict(s)
                            for s in data["snapshots"]),
        )

    @classmethod
    def load(cls, path: str) -> "Timeline":
        """Load one timeline artifact file."""
        return cls.from_dict(load_artifact(path))
