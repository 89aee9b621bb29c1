"""Typed case results: the schema behind every sweep artifact row.

:class:`CaseResult` / :class:`RegionResult` are frozen dataclasses that
round-trip to *exactly* the JSON rows sweeps have always written — the
artifact format is a versioned public contract (:data:`SCHEMA_VERSION`),
not an accident of serialization code.  Three ways in:

* :meth:`CaseResult.from_report` — from a live
  :class:`~repro.core.metrics.MetricsReport` (what the scenario runner
  uses to *produce* rows; NaN metrics become JSON ``null`` here).
* :meth:`CaseResult.from_dict` — from a saved artifact row (strict:
  unknown or missing keys are schema violations and raise).
* :meth:`CaseResult.to_dict` — the inverse, reproducing the row
  byte-for-byte under canonical serialization.

Values are stored exactly as they appear in JSON (``None`` for a NaN
metric, ints staying ints); the numeric accessors (:attr:`throughput`,
:attr:`latency_s`, ...) coerce ``None`` back to ``nan`` so arithmetic
consumers never branch on missing data.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.metrics import MetricsReport

#: Version of the artifact row/envelope schema.  The current shape —
#: unversioned on disk for byte-compatibility with every artifact ever
#: written — is version 1; loaders accept an explicit
#: ``"schema_version": 1`` in the sweep envelope and reject anything
#: newer.
SCHEMA_VERSION = 1

#: The per-region row fields, artifact key order.
REGION_FIELDS = (
    "output_tuples", "throughput_tps", "mean_latency_s", "p95_latency_s",
    "stopped",
)

#: The case-level row fields besides ``regions``.
CASE_FIELDS = (
    "scenario", "app", "scheme", "seed", "end_to_end_latency_s",
    "preserved_bytes", "ft_network_bytes", "wifi_bytes", "cellular_bytes",
    "recoveries", "departures_handled",
)

#: The axes a case can be filtered/grouped by.
AXES = ("scenario", "app", "scheme", "seed")


def _nan_to_none(x: Any) -> Any:
    """NaN-free value for strict JSON (the artifact's null convention)."""
    return None if isinstance(x, float) and math.isnan(x) else x


def _none_to_nan(x: Any) -> float:
    """Numeric view of a JSON value: ``null`` reads back as ``nan``."""
    return float("nan") if x is None else x


def _check_keys(what: str, data: Any,
                expected: Sequence[str]) -> None:
    """Schema guard: a row must be a mapping carrying exactly the
    contract's keys."""
    if not isinstance(data, Mapping):
        raise ValueError(
            f"{what} must be a mapping with keys {list(expected)}, "
            f"got {data!r}"
        )
    missing = [k for k in expected if k not in data]
    unknown = sorted(set(data) - set(expected))
    if missing or unknown:
        problems = []
        if missing:
            problems.append(f"missing key(s) {missing}")
        if unknown:
            problems.append(f"unknown key(s) {unknown}")
        raise ValueError(
            f"{what} does not match artifact schema v{SCHEMA_VERSION}: "
            f"{'; '.join(problems)}; expected exactly {list(expected)}"
        )


@dataclass(frozen=True)
class RegionResult:
    """One region's measurements inside a case row.

    ``name`` is the artifact's ``regions`` mapping key; the remaining
    fields mirror the row values exactly (``None`` where the artifact
    holds ``null``).
    """

    name: str
    output_tuples: int
    throughput_tps: Optional[float]
    mean_latency_s: Optional[float]
    p95_latency_s: Optional[float]
    stopped: bool

    # -- numeric views --------------------------------------------------------
    @property
    def throughput(self) -> float:
        """Throughput in tuples/s (``nan`` when the row holds null)."""
        return _none_to_nan(self.throughput_tps)

    @property
    def latency_s(self) -> float:
        """Mean latency in seconds (``nan`` when the row holds null)."""
        return _none_to_nan(self.mean_latency_s)

    @property
    def p95_s(self) -> float:
        """p95 latency in seconds (``nan`` when the row holds null)."""
        return _none_to_nan(self.p95_latency_s)

    # -- serialization --------------------------------------------------------
    @classmethod
    def from_dict(cls, name: str, data: Mapping[str, Any]) -> "RegionResult":
        """Parse one ``regions[name]`` entry (strict)."""
        _check_keys(f"region {name!r}", data, REGION_FIELDS)
        return cls(name=name, **{k: data[k] for k in REGION_FIELDS})

    def to_dict(self) -> Dict[str, Any]:
        """The exact ``regions[name]`` artifact entry."""
        return {k: getattr(self, k) for k in REGION_FIELDS}


@dataclass(frozen=True)
class CaseResult:
    """One executed (scenario, app, scheme, seed) case, artifact-shaped.

    ``app`` is the app ref's deterministic case key (``"bcp"``, or
    ``"edgeml[n_stages=2]"`` for parameterized refs).  ``regions`` keeps
    cascade order, matching the report the row was reduced from.
    """

    scenario: str
    app: str
    scheme: str
    seed: int
    regions: Tuple[RegionResult, ...]
    end_to_end_latency_s: Optional[float]
    preserved_bytes: float
    ft_network_bytes: float
    wifi_bytes: float
    cellular_bytes: float
    recoveries: int
    departures_handled: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))

    # -- region access --------------------------------------------------------
    @property
    def region_names(self) -> Tuple[str, ...]:
        """Region names in cascade order."""
        return tuple(r.name for r in self.regions)

    def region(self, name: str) -> RegionResult:
        """One region by name; unknown names raise listing the known ones."""
        for r in self.regions:
            if r.name == name:
                return r
        known = ", ".join(self.region_names) or "<none>"
        raise ValueError(
            f"unknown region {name!r}; regions in this case: {known}"
        )

    @property
    def first_region(self) -> RegionResult:
        """The cascade's first region (the classic headline metrics)."""
        if not self.regions:
            raise ValueError("case has no regions")
        return self.regions[0]

    @property
    def stopped(self) -> bool:
        """True when any region ended the run stopped (unrecoverable)."""
        return any(r.stopped for r in self.regions)

    # -- headline numeric views ----------------------------------------------
    @property
    def throughput(self) -> float:
        """First-region steady throughput (tuples/s)."""
        return self.first_region.throughput

    @property
    def latency_s(self) -> float:
        """First-region mean latency (s)."""
        return self.first_region.latency_s

    @property
    def p95_latency_s(self) -> float:
        """First-region p95 latency (s)."""
        return self.first_region.p95_s

    @property
    def total_output_tuples(self) -> int:
        """Output tuples summed across every region."""
        return sum(r.output_tuples for r in self.regions)

    @property
    def key(self) -> Tuple[str, str, int]:
        """The case's matrix coordinates: (app key, scheme, seed)."""
        return (self.app, self.scheme, self.seed)

    def axis(self, name: str) -> Any:
        """One filter/group axis value; unknown axes raise listing known."""
        if name not in AXES:
            raise ValueError(
                f"unknown case axis {name!r}; axes: {', '.join(AXES)}"
            )
        return getattr(self, name)

    # -- metric resolution ----------------------------------------------------
    #: alias -> how to read it (documented in :meth:`metric_names`).
    _ALIASES = {
        "throughput": lambda c: c.first_region.throughput_tps,
        "latency": lambda c: c.first_region.mean_latency_s,
        "p95_latency": lambda c: c.first_region.p95_latency_s,
        "e2e_latency": lambda c: c.end_to_end_latency_s,
        "output_tuples": lambda c: c.total_output_tuples,
    }
    _FIELD_METRICS = (
        "end_to_end_latency_s", "preserved_bytes", "ft_network_bytes",
        "wifi_bytes", "cellular_bytes", "recoveries", "departures_handled",
        "seed",
    )

    @classmethod
    def metric_names(cls) -> List[str]:
        """Every non-dotted metric :meth:`value` resolves."""
        return sorted(set(cls._ALIASES) | set(cls._FIELD_METRICS))

    def value(self, metric: str) -> Any:
        """One metric value, exactly as the artifact stores it.

        Accepts the case-level field names (``preserved_bytes``, ...),
        the headline aliases (``throughput`` / ``latency`` /
        ``p95_latency`` / ``e2e_latency`` read the *first* region,
        ``output_tuples`` sums all regions), and dotted region metrics
        (``region1.throughput_tps``).  A null metric returns ``None``;
        use the numeric properties for nan-coerced arithmetic.
        """
        if metric in self._ALIASES:
            return self._ALIASES[metric](self)
        if metric in self._FIELD_METRICS:
            return getattr(self, metric)
        if "." in metric:
            region_name, _, field = metric.partition(".")
            if field not in REGION_FIELDS:
                raise ValueError(
                    f"unknown region metric {field!r}; region metrics: "
                    f"{', '.join(REGION_FIELDS)}"
                )
            return getattr(self.region(region_name), field)
        known = ", ".join(self.metric_names())
        raise ValueError(
            f"unknown metric {metric!r}; metrics: {known} "
            "(or '<region>.<field>' for per-region values)"
        )

    def replace(self, **changes: Any) -> "CaseResult":
        """A copy with the given fields swapped (frozen-friendly)."""
        return dataclasses.replace(self, **changes)

    # -- constructors / serialization -----------------------------------------
    @classmethod
    def from_report(
        cls,
        scenario: str,
        app: str,
        scheme: str,
        seed: int,
        report: "MetricsReport",
        region_stopped: Sequence[bool],
    ) -> "CaseResult":
        """Reduce a live metrics report to the artifact row shape.

        This is where NaN metrics (a region with no steady-state output)
        become JSON ``null`` — the single place the simulation-side
        types meet the artifact contract.
        """
        regions = tuple(
            RegionResult(
                name=name,
                output_tuples=rm.output_tuples,
                throughput_tps=_nan_to_none(rm.throughput_tps),
                mean_latency_s=_nan_to_none(rm.mean_latency_s),
                p95_latency_s=_nan_to_none(rm.p95_latency_s),
                stopped=region_stopped[i],
            )
            for i, (name, rm) in enumerate(report.per_region.items())
        )
        return cls(
            scenario=scenario,
            app=app,
            scheme=scheme,
            seed=seed,
            regions=regions,
            end_to_end_latency_s=_nan_to_none(report.end_to_end_latency_s),
            preserved_bytes=report.preserved_bytes,
            ft_network_bytes=report.ft_network_bytes,
            wifi_bytes=report.wifi_bytes,
            cellular_bytes=report.cellular_bytes,
            recoveries=report.recoveries,
            departures_handled=report.departures_handled,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CaseResult":
        """Parse one artifact case row (strict schema check)."""
        _check_keys("case row", data, CASE_FIELDS + ("regions",))
        regions_data = data["regions"]
        if not isinstance(regions_data, Mapping):
            raise ValueError(
                f"case row 'regions' must be a mapping, got {regions_data!r}"
            )
        regions = tuple(
            RegionResult.from_dict(name, rd) for name, rd in regions_data.items()
        )
        return cls(regions=regions, **{k: data[k] for k in CASE_FIELDS})

    def to_dict(self) -> Dict[str, Any]:
        """The exact artifact row (stable, timestamp-free).

        Byte-identical under canonical serialization to every row a
        sweep has ever written: same keys, same value types, regions in
        the same order.
        """
        return {
            "scenario": self.scenario,
            "app": self.app,
            "scheme": self.scheme,
            "seed": self.seed,
            "regions": {r.name: r.to_dict() for r in self.regions},
            "end_to_end_latency_s": self.end_to_end_latency_s,
            "preserved_bytes": self.preserved_bytes,
            "ft_network_bytes": self.ft_network_bytes,
            "wifi_bytes": self.wifi_bytes,
            "cellular_bytes": self.cellular_bytes,
            "recoveries": self.recoveries,
            "departures_handled": self.departures_handled,
        }
