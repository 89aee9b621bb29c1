"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, serializable description of one
experiment family: the deployment shape (regions, phones, per-region
heterogeneity), a timed event script (crash bursts, churn, joins,
handoffs, workload surges, battery drops), and the scheme × app × seed
matrix to sweep.  Specs are plain dataclasses that round-trip through
``dict``/JSON losslessly, so they can live in files, travel across
process boundaries (the parallel sweep executor pickles the dict form),
and be diffed like any other artifact.

The vocabulary of event kinds:

``crash``
    ``phones`` of ``region`` die simultaneously at ``time`` (Fig. 9's
    simultaneous-failure burst; one phone is the degenerate case).
``cascade``
    ``phones`` crash one-by-one, ``interval`` seconds apart, starting at
    ``time`` (a rolling failure cascade inside a checkpoint period).
``depart``
    ``phones`` physically walk out of ``region`` at ``time``.
``churn``
    phones trickle out at exponential gaps of mean ``interval`` from
    ``time`` (deterministic per run seed).
``join``
    ``count`` fresh phones enter ``region`` at ``time`` and register as
    idle spares (churn's arrival side).
``handoff``
    ``phones`` walk from ``region`` into ``to_region`` (default: the
    next region down the cascade) at ``time``.
``surge``
    the source workloads of ``region`` speed up by ``factor`` between
    ``time`` and ``until`` (flash-crowd load spike).
``battery``
    the batteries of ``phones`` drop to ``charge`` at ``time``
    (forecasting chronic-battery self-reports and organic deaths).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.apps.registry import AppRef, AppRefLike
from repro.util.simlog import get_logger

EVENT_KINDS = (
    "crash", "cascade", "depart", "churn", "join", "handoff", "surge", "battery",
)


@dataclass(frozen=True)
class EventSpec:
    """One entry of a scenario's timed event script."""

    kind: str
    time: float
    #: Region the event targets (cascade index).
    region: int = 0
    #: Region-local computing-phone indices (``region{r}.p{i}``).
    phones: Tuple[int, ...] = ()
    #: ``join``: number of phones admitted.
    count: int = 1
    #: ``handoff``: target region (None -> next region down the cascade).
    to_region: Optional[int] = None
    #: ``surge``: rate multiplier (>1 speeds sources up).
    factor: float = 1.0
    #: ``surge``/``churn``: end of the window (None -> open-ended).
    until: Optional[float] = None
    #: ``cascade``/``churn``: seconds between consecutive phones.
    interval: float = 30.0
    #: ``battery``: new charge fraction.
    charge: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.time < 0:
            raise ValueError("event time must be >= 0")
        if self.kind == "surge" and self.factor <= 0:
            raise ValueError("surge factor must be positive")
        if self.kind == "join" and self.count < 1:
            raise ValueError("join count must be >= 1")
        if self.kind == "battery" and not 0.0 <= self.charge <= 1.0:
            raise ValueError("charge must be in [0, 1]")
        object.__setattr__(self, "phones", tuple(self.phones))

    def scaled(self, factor: float) -> "EventSpec":
        """The same event with every timestamp multiplied by ``factor``."""
        return dataclasses.replace(
            self,
            time=self.time * factor,
            until=None if self.until is None else self.until * factor,
            interval=self.interval * factor,
        )


@dataclass(frozen=True)
class RegionSpec:
    """Per-region heterogeneity (None fields fall back to spec defaults)."""

    phones: Optional[int] = None
    idle: Optional[int] = None
    #: Compute speed relative to the reference device.
    cpu_speed: float = 1.0
    #: Initial battery charge of this region's phones.
    charge_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.cpu_speed <= 0:
            raise ValueError("cpu_speed must be positive")
        if not 0.0 < self.charge_fraction <= 1.0:
            raise ValueError("charge_fraction must be in (0, 1]")


@dataclass(frozen=True)
class TelemetrySpec:
    """Opt-in live QoS telemetry for a scenario's cases.

    When present on a :class:`ScenarioSpec`, every case attaches a
    :class:`repro.telemetry.QoSMonitor` sampling on ``interval_s`` of
    virtual time, and sweeps can persist the per-case timelines
    alongside the row artifact.  Absent (the default), no telemetry
    machinery is built at all and artifacts stay byte-identical to
    pre-telemetry runs.
    """

    #: Virtual-time sampling interval in seconds.
    interval_s: float = 10.0

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("telemetry interval must be positive")

    def scaled(self, factor: float) -> "TelemetrySpec":
        """Interval scaled with the scenario clock (a ``quick()`` copy
        keeps its snapshot count, not its wall interval)."""
        return dataclasses.replace(self, interval_s=self.interval_s * factor)


@dataclass(frozen=True)
class MatrixSpec:
    """The app × scheme × seed product a scenario sweeps.

    ``apps`` entries are :class:`~repro.apps.registry.AppRef`-likes: a
    bare registered name (``"bcp"``) or a parameterized mapping
    (``{"name": "bcp", "params": {"n_counters": 8}}``); they normalize
    to :class:`AppRef` so a matrix can sweep application parameters,
    not just application identities.  Duplicate entries on any axis are
    rejected — they would run identical cases whose artifacts collide.
    """

    apps: Tuple[AppRefLike, ...] = ("bcp",)
    schemes: Tuple[str, ...] = ("ms-8",)
    seeds: Tuple[int, ...] = (3,)

    def __post_init__(self) -> None:
        if not (self.apps and self.schemes and self.seeds):
            raise ValueError("matrix axes must be non-empty")
        object.__setattr__(
            self, "apps", tuple(AppRef.coerce(a) for a in self.apps))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        for axis, values in (("apps", [a.key for a in self.apps]),
                             ("schemes", self.schemes),
                             ("seeds", self.seeds)):
            if len(set(values)) != len(values):
                dupes = sorted({v for v in values if values.count(v) > 1})
                raise ValueError(
                    f"duplicate {axis} entries {dupes}: identical cases "
                    "would run twice and collide in artifacts"
                )

    def cases(self) -> Iterator[Tuple[AppRef, str, int]]:
        """Every (app ref, scheme, seed) combination, in deterministic order."""
        for app in self.apps:
            for scheme in self.schemes:
                for seed in self.seeds:
                    yield app, scheme, seed

    def __len__(self) -> int:
        return len(self.apps) * len(self.schemes) * len(self.seeds)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; param-free app refs stay bare strings, so
        pre-existing scenario artifacts are byte-identical."""
        return {
            "apps": [a.to_jsonable() for a in self.apps],
            "schemes": list(self.schemes),
            "seeds": list(self.seeds),
        }


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario."""

    name: str
    description: str = ""
    duration_s: float = 900.0
    warmup_s: float = 150.0
    n_regions: int = 1
    phones_per_region: int = 8
    idle_per_region: int = 2
    checkpoint_period_s: float = 300.0
    #: Per-region overrides, cascade order (may be shorter than n_regions).
    regions: Tuple[RegionSpec, ...] = ()
    #: The timed event script; scheduled in listed order.
    events: Tuple[EventSpec, ...] = ()
    matrix: MatrixSpec = field(default_factory=MatrixSpec)
    #: Opt-in live QoS telemetry (None = off; see :class:`TelemetrySpec`).
    telemetry: Optional[TelemetrySpec] = None
    #: Device-state backend: "object" (per-phone objects, the default) or
    #: "fleet" (vectorized struct-of-arrays for large-n populations).
    device_backend: str = "object"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.device_backend not in ("object", "fleet"):
            raise ValueError(
                f"unknown device_backend {self.device_backend!r}; "
                "expected 'object' or 'fleet'"
            )
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= self.warmup_s < self.duration_s:
            raise ValueError("warmup must be within the run duration")
        if self.n_regions < 1:
            raise ValueError("need at least one region")
        if self.phones_per_region < 1:
            raise ValueError("need at least one phone per region")
        if self.checkpoint_period_s <= 0:
            raise ValueError("checkpoint period must be positive")
        if len(self.regions) > self.n_regions:
            raise ValueError("more region overrides than regions")
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "events", tuple(self.events))
        if self.telemetry is not None and not isinstance(
            self.telemetry, TelemetrySpec
        ):
            object.__setattr__(
                self, "telemetry", TelemetrySpec(**dict(self.telemetry)))
        for ev in self.events:
            if not 0 <= ev.region < self.n_regions:
                raise ValueError(f"event targets unknown region {ev.region}")
            if ev.kind == "handoff" and ev.to_region is not None and not (
                0 <= ev.to_region < self.n_regions
            ):
                raise ValueError(f"handoff targets unknown region {ev.to_region}")
        late = self.late_events()
        if late:
            # Not an error: a spec may be the pre-``quick()`` original of
            # a scaled copy whose events do fit.  But an event at or past
            # duration_s never fires as written, which is almost always a
            # typo — say so at load time, once per spec object.
            get_logger().warning(
                "scenario %r: %d event(s) at/past duration_s=%.1f never "
                "fire: %s", self.name, len(late), self.duration_s,
                ", ".join(f"{ev.kind}@{ev.time:g}s" for ev in late),
            )

    # -- derived views -------------------------------------------------------
    def late_events(self) -> Tuple[EventSpec, ...]:
        """Events scheduled at or past ``duration_s`` — dead script
        entries that can never fire within the run window."""
        return tuple(ev for ev in self.events if ev.time >= self.duration_s)

    def scaled(self, factor: float) -> "ScenarioSpec":
        """Time-compressed/stretched copy: durations, event times, and the
        checkpoint period all scale together so the scenario keeps its
        shape (a crash 1.5 periods in stays 1.5 periods in)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return dataclasses.replace(
            self,
            duration_s=self.duration_s * factor,
            warmup_s=self.warmup_s * factor,
            checkpoint_period_s=self.checkpoint_period_s * factor,
            events=tuple(ev.scaled(factor) for ev in self.events),
            telemetry=(None if self.telemetry is None
                       else self.telemetry.scaled(factor)),
        )

    def quick(self, target_duration_s: float = 300.0) -> "ScenarioSpec":
        """A smoke-test copy compressed to about ``target_duration_s``."""
        if self.duration_s <= target_duration_s:
            return self
        return self.scaled(target_duration_s / self.duration_s)

    def scaled_phones(self, n_phones: int) -> "ScenarioSpec":
        """The same scenario with each region's population grown to
        ``n_phones``: the computing count is kept (the dataflow shape
        must not change) and the idle spare pool absorbs the rest.
        Per-region ``RegionSpec`` phone/idle overrides are dropped —
        population scaling and hand-tuned counts don't compose."""
        if n_phones < self.phones_per_region:
            raise ValueError(
                f"n_phones ({n_phones}) is below the computing population "
                f"({self.phones_per_region})"
            )
        return dataclasses.replace(
            self,
            idle_per_region=n_phones - self.phones_per_region,
            regions=tuple(
                dataclasses.replace(r, phones=None, idle=None)
                for r in self.regions
            ),
        )

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready, lossless).

        The ``telemetry`` key is omitted entirely when unset — the same
        convention that keeps param-free app refs bare strings — so
        every pre-telemetry artifact, golden hash, and spec digest is
        byte-identical to one produced by this code.
        """
        d = dataclasses.asdict(self)
        d["regions"] = [dataclasses.asdict(r) for r in self.regions]
        d["events"] = [dataclasses.asdict(e) for e in self.events]
        d["matrix"] = self.matrix.to_dict()
        if self.telemetry is None:
            del d["telemetry"]
        if self.device_backend == "object":
            # Same omission convention as ``telemetry``: default-valued
            # runs serialize exactly as they did before the knob existed,
            # keeping golden hashes and spec digests byte-identical.
            del d["device_backend"]
        return d

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict` (tolerates JSON's tuple->list)."""
        d = dict(data)
        d["regions"] = tuple(RegionSpec(**r) for r in d.get("regions", ()))
        d["events"] = tuple(
            EventSpec(**{**e, "phones": tuple(e.get("phones", ()))})
            for e in d.get("events", ())
        )
        matrix = d.get("matrix", {})
        if not isinstance(matrix, MatrixSpec):
            d["matrix"] = MatrixSpec(
                apps=tuple(matrix.get("apps", ("bcp",))),
                schemes=tuple(matrix.get("schemes", ("ms-8",))),
                seeds=tuple(matrix.get("seeds", (3,))),
            )
        telemetry = d.get("telemetry")
        if telemetry is not None and not isinstance(telemetry, TelemetrySpec):
            d["telemetry"] = TelemetrySpec(**telemetry)
        return cls(**d)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON form (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
