"""ResultSet: the query surface over sweep artifacts.

One typed collection sits between "a sweep ran" and "a human, figure,
or test consumes numbers":

* load it — :meth:`ResultSet.load` (artifact file),
  :meth:`ResultSet.from_sweep` (the dict :func:`repro.scenarios.executor.
  run_sweep` returns), :meth:`ResultSet.from_cases` (typed cases).
* slice it — :meth:`ResultSet.filter` by axis values or predicates,
  :meth:`ResultSet.group_by` into ordered per-key subsets.
* reduce it — :meth:`ResultSet.aggregate` (mean/median/p95/... with an
  optional normal-approximation CI) across seeds or any other slice,
  :meth:`ResultSet.relative_to` for the paper's normalized comparisons,
  :meth:`ResultSet.pivot` for scheme × app tables.
* export it — :meth:`ResultSet.to_rows` (flat dicts),
  :meth:`ResultSet.to_json` (byte-identical to the canonical artifact
  serialization, so ``load(path).to_json()`` round-trips exactly).

Everything returns plain data or further ``ResultSet``s; nothing here
re-runs simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.results.io import dumps_artifact, load_artifact
from repro.results.model import AXES, SCHEMA_VERSION, CaseResult
from repro.util.stats import mean, mean_ci, nearest_rank

#: The envelope keys a sweep artifact may carry.  ``violations`` (a
#: ``verify=True`` sweep) and ``errors`` (cases that raised and exhausted
#: their retry) only appear on in-memory envelopes — the on-disk
#: artifact never carries them; they are tolerated, not stored.
_ENVELOPE_REQUIRED = ("cases", "n_cases")
_ENVELOPE_OPTIONAL = ("scenario", "spec", "schema_version", "violations",
                      "errors")


#: stat name -> reducer over a non-empty numeric sample.
_STATS: Dict[str, Callable[[Sequence[float]], float]] = {
    "mean": mean,
    "median": lambda v: float(np.median(np.asarray(v, dtype=float))),
    "min": min,
    "max": max,
    "sum": lambda v: float(sum(v)),
    "std": lambda v: (float(np.asarray(v, dtype=float).std(ddof=1))
                      if len(v) > 1 else 0.0),
    "p95": lambda v: nearest_rank(sorted(v), 0.95),
    "count": len,
}

STAT_NAMES = tuple(_STATS)


@dataclass(frozen=True)
class Aggregate:
    """One reduced metric: ``value`` plus the sample it came from.

    ``n`` counts the cases that actually carried the metric (null rows
    are skipped); an empty sample reduces to ``nan``.  With ``ci``
    requested, ``ci_half`` is the 95% normal-approximation half-width
    of the *mean* (0 for a single sample).
    """

    metric: str
    stat: str
    value: float
    n: int
    ci_half: Optional[float] = None

    def __float__(self) -> float:
        return float(self.value)


GroupKey = Union[Any, Tuple[Any, ...]]


class GroupedResults:
    """An ordered mapping of group key -> :class:`ResultSet`.

    Keys appear in first-seen case order (matrix order for a sweep
    artifact).  Unknown keys raise a :class:`ValueError` naming the
    known ones, registry-style.
    """

    def __init__(self, axes: Tuple[str, ...],
                 groups: "Dict[GroupKey, ResultSet]") -> None:
        self.axes = axes
        self._groups = groups

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self) -> Iterator[GroupKey]:
        return iter(self._groups)

    def __contains__(self, key: GroupKey) -> bool:
        return key in self._groups

    def keys(self) -> List[GroupKey]:
        return list(self._groups)

    def items(self) -> List[Tuple[GroupKey, "ResultSet"]]:
        return list(self._groups.items())

    def values(self) -> List["ResultSet"]:
        return list(self._groups.values())

    def __getitem__(self, key: GroupKey) -> "ResultSet":
        try:
            return self._groups[key]
        except KeyError:
            known = ", ".join(repr(k) for k in self._groups) or "<none>"
            axis = "×".join(self.axes)
            raise ValueError(
                f"unknown {axis} group {key!r}; groups: {known}"
            ) from None

    def aggregate(self, metric: str, stat: str = "mean",
                  ci: bool = False) -> Dict[GroupKey, Aggregate]:
        """One :class:`Aggregate` per group, in group order."""
        return {key: rs.aggregate(metric, stat, ci=ci)
                for key, rs in self._groups.items()}


@dataclass(frozen=True)
class Pivot:
    """A rows-axis × cols-axis table of one aggregated metric."""

    rows_axis: str
    cols_axis: str
    metric: str
    stat: str
    row_keys: Tuple[Any, ...]
    col_keys: Tuple[Any, ...]
    cells: Mapping[Tuple[Any, Any], Aggregate]

    def cell(self, row: Any, col: Any) -> float:
        """One cell's value; ``nan`` where no case lands."""
        agg = self.cells.get((row, col))
        return float("nan") if agg is None else agg.value

    def to_text(self, title: str = "") -> str:
        """Render as a plain-text table."""
        from repro.results.report import format_table

        header = [f"{self.rows_axis}\\{self.cols_axis}"]
        header += [str(c) for c in self.col_keys]
        rows = []
        for r in self.row_keys:
            cells = []
            for c in self.col_keys:
                v = self.cell(r, c)
                cells.append("-" if math.isnan(v) else f"{v:.4g}")
            rows.append([str(r)] + cells)
        return format_table(
            header, rows,
            title=title or f"{self.stat}({self.metric}) by "
                           f"{self.rows_axis} × {self.cols_axis}",
        )


class ResultSet:
    """An immutable, queryable collection of :class:`CaseResult`."""

    def __init__(
        self,
        cases: Iterable[CaseResult],
        scenario: Optional[str] = None,
        spec: Optional[Dict[str, Any]] = None,
        schema_version: Optional[int] = None,
    ) -> None:
        self.cases: Tuple[CaseResult, ...] = tuple(cases)
        #: Scenario name from the sweep envelope (provenance; survives
        #: filtering even though the subset no longer spans the matrix).
        self.scenario = scenario
        #: The raw spec dict from the envelope, kept verbatim so
        #: serialization round-trips byte-for-byte.
        self.spec = spec
        #: Explicit envelope schema version, when the artifact carried
        #: one (current artifacts are implicitly version 1).
        self.schema_version = schema_version

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_cases(
        cls,
        cases: Iterable[CaseResult],
        scenario: Optional[str] = None,
        spec: Optional[Dict[str, Any]] = None,
    ) -> "ResultSet":
        """Wrap already-typed cases."""
        return cls(cases, scenario=scenario, spec=spec)

    @classmethod
    def from_sweep(cls, result: Mapping[str, Any]) -> "ResultSet":
        """Adopt a sweep result dict (the executor's return value or a
        parsed artifact).  Strict: unknown envelope keys, a ``n_cases``
        that disagrees with the rows (a torn artifact), or a schema
        version this code doesn't speak all raise ``ValueError``.
        """
        known = set(_ENVELOPE_REQUIRED) | set(_ENVELOPE_OPTIONAL)
        missing = [k for k in _ENVELOPE_REQUIRED if k not in result]
        unknown = sorted(set(result) - known)
        if missing or unknown:
            problems = []
            if missing:
                problems.append(f"missing key(s) {missing}")
            if unknown:
                problems.append(f"unknown key(s) {unknown}")
            raise ValueError(
                f"not a sweep artifact: {'; '.join(problems)}; "
                f"expected {sorted(known)}"
            )
        version = result.get("schema_version")
        if version is not None and version != SCHEMA_VERSION:
            raise ValueError(
                f"artifact schema version {version!r} is not supported; "
                f"this code speaks version {SCHEMA_VERSION}"
            )
        if not isinstance(result["cases"], (list, tuple)):
            raise ValueError(
                f"artifact 'cases' must be a list, got {result['cases']!r}"
            )
        cases = tuple(CaseResult.from_dict(row) for row in result["cases"])
        if result["n_cases"] != len(cases):
            raise ValueError(
                f"artifact is torn: n_cases={result['n_cases']} but "
                f"{len(cases)} case row(s) present"
            )
        return cls(
            cases,
            scenario=result.get("scenario"),
            spec=result.get("spec"),
            schema_version=version,
        )

    @classmethod
    def load(cls, path: str) -> "ResultSet":
        """Load an artifact file: a sweep envelope, a bare list of case
        rows, or a single case row (e.g. a resume-cache entry)."""
        data = load_artifact(path)
        if isinstance(data, list):
            return cls(CaseResult.from_dict(row) for row in data)
        if isinstance(data, Mapping) and "cases" in data:
            return cls.from_sweep(data)
        if isinstance(data, Mapping) and "regions" in data:
            return cls([CaseResult.from_dict(data)])
        raise ValueError(
            f"{path}: not a sweep artifact, case-row list, or case row"
        )

    # -- collection protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self.cases)

    def __iter__(self) -> Iterator[CaseResult]:
        return iter(self.cases)

    def __getitem__(self, index: int) -> CaseResult:
        return self.cases[index]

    def __repr__(self) -> str:
        scen = f" scenario={self.scenario!r}" if self.scenario else ""
        return f"<ResultSet{scen} n={len(self.cases)}>"

    def _derive(self, cases: Iterable[CaseResult]) -> "ResultSet":
        """A subset carrying this set's provenance."""
        return ResultSet(cases, scenario=self.scenario, spec=self.spec,
                         schema_version=self.schema_version)

    # -- axis views -----------------------------------------------------------
    def _axis_values(self, axis: str) -> List[Any]:
        seen: Dict[Any, None] = {}
        for case in self.cases:
            seen.setdefault(case.axis(axis))
        return list(seen)

    @property
    def apps(self) -> List[str]:
        """App case keys, first-seen order."""
        return self._axis_values("app")

    @property
    def schemes(self) -> List[str]:
        """Scheme labels, first-seen order."""
        return self._axis_values("scheme")

    @property
    def seeds(self) -> List[int]:
        """Seeds, first-seen order."""
        return self._axis_values("seed")

    # -- query ----------------------------------------------------------------
    def filter(
        self,
        *predicates: Callable[[CaseResult], bool],
        **axes: Any,
    ) -> "ResultSet":
        """Cases matching every axis constraint and predicate.

        Axis constraints (``app=``, ``scheme=``, ``seed=``,
        ``scenario=``) accept a single value or a collection of allowed
        values; extra callables run per case.

        >>> rs.filter(scheme="ms-8", seed=(3, 4))
        >>> rs.filter(lambda c: c.recoveries > 0)
        """
        unknown = sorted(set(axes) - set(AXES))
        if unknown:
            raise ValueError(
                f"unknown filter axis(es) {unknown}; axes: {', '.join(AXES)}"
            )
        allowed = {
            axis: (set(want) if isinstance(want, (list, tuple, set, frozenset))
                   else {want})
            for axis, want in axes.items()
        }
        kept = [
            case for case in self.cases
            if all(case.axis(a) in want for a, want in allowed.items())
            and all(pred(case) for pred in predicates)
        ]
        return self._derive(kept)

    def group_by(self, *axes: str) -> GroupedResults:
        """Split into ordered per-key subsets along one or more axes.

        A single axis keys groups by its value (``group_by("scheme")``
        -> ``"ms-8"``); several axes key by tuple.
        """
        if not axes:
            raise ValueError(f"group_by needs at least one axis of {AXES}")
        groups: Dict[GroupKey, List[CaseResult]] = {}
        for case in self.cases:
            values = tuple(case.axis(a) for a in axes)
            key = values[0] if len(axes) == 1 else values
            groups.setdefault(key, []).append(case)
        return GroupedResults(
            tuple(axes),
            {key: self._derive(cases) for key, cases in groups.items()},
        )

    # -- reduction ------------------------------------------------------------
    def values(self, metric: str) -> List[Any]:
        """The metric per case, artifact-raw (``None`` where null)."""
        return [case.value(metric) for case in self.cases]

    def aggregate(self, metric: str, stat: str = "mean",
                  ci: bool = False) -> Aggregate:
        """Reduce a metric across the set's cases.

        ``stat`` is one of :data:`STAT_NAMES`; null metrics (a region
        with no steady-state output) are skipped, and an empty sample
        reduces to ``nan``.  ``ci=True`` (mean only) adds the 95%
        normal-approximation half-width across the sample — the
        cross-seed error bar.
        """
        if stat not in _STATS:
            raise ValueError(
                f"unknown stat {stat!r}; stats: {', '.join(_STATS)}"
            )
        if ci and stat != "mean":
            raise ValueError("ci=True is only meaningful with stat='mean'")
        sample = [v for v in self.values(metric) if v is not None]
        n = len(sample)
        if stat == "count":
            value = float(n)
        elif n == 0:
            value = float("nan")
        else:
            value = float(_STATS[stat](sample))
        half: Optional[float] = None
        if ci:
            half = mean_ci(sample)[1] if n else float("nan")
        return Aggregate(metric=metric, stat=stat, value=value, n=n,
                         ci_half=half)

    def relative_to(
        self,
        baseline: Any,
        axis: str = "scheme",
        metrics: Sequence[str] = ("throughput", "latency"),
        stat: str = "mean",
        floor: Optional[float] = None,
        default: float = 0.0,
    ) -> Dict[Any, Dict[str, float]]:
        """Paper-style normalized comparison along one axis.

        Groups the set by ``axis``, aggregates each metric per group,
        and divides by the ``baseline`` group's aggregate — Fig. 8's
        "normalized to base" bars in one call.  ``floor`` clamps the
        denominator from below (Fig. 10 normalizes byte counts against
        ``max(base, 1.0)`` so an all-zero baseline stays finite);
        without a floor, a falsy baseline yields ``default``.  Unknown
        baselines raise naming the known groups.

        Returns ``{group key: {metric: ratio}}`` in group order.
        """
        groups = self.group_by(axis)
        base = groups[baseline]  # ValueError naming known groups
        base_values = {m: base.aggregate(m, stat).value for m in metrics}
        out: Dict[Any, Dict[str, float]] = {}
        for key, rs in groups.items():
            row: Dict[str, float] = {}
            for m in metrics:
                denom = base_values[m]
                if floor is not None:
                    denom = max(denom, floor)
                value = rs.aggregate(m, stat).value
                row[m] = value / denom if denom else default
            out[key] = row
        return out

    def pivot(
        self,
        rows: str = "scheme",
        cols: str = "app",
        metric: str = "throughput",
        stat: str = "mean",
    ) -> Pivot:
        """A rows × cols table of one aggregated metric (scheme × app
        by default), keys in first-seen order."""
        row_keys = tuple(self._axis_values(rows))
        col_keys = tuple(self._axis_values(cols))
        cells: Dict[Tuple[Any, Any], Aggregate] = {}
        for (r, c), rs in self.group_by(rows, cols).items():
            cells[(r, c)] = rs.aggregate(metric, stat)
        return Pivot(rows_axis=rows, cols_axis=cols, metric=metric, stat=stat,
                     row_keys=row_keys, col_keys=col_keys, cells=cells)

    # -- export ---------------------------------------------------------------
    def to_rows(self) -> List[Dict[str, Any]]:
        """Flat export rows: one dict per case, region metrics dotted
        (``region0.throughput_tps``) — ready for CSV/dataframe tools."""
        rows = []
        for case in self.cases:
            row: Dict[str, Any] = {
                "scenario": case.scenario,
                "app": case.app,
                "scheme": case.scheme,
                "seed": case.seed,
                "end_to_end_latency_s": case.end_to_end_latency_s,
                "preserved_bytes": case.preserved_bytes,
                "ft_network_bytes": case.ft_network_bytes,
                "wifi_bytes": case.wifi_bytes,
                "cellular_bytes": case.cellular_bytes,
                "recoveries": case.recoveries,
                "departures_handled": case.departures_handled,
                "stopped": case.stopped,
            }
            for region in case.regions:
                for field, value in region.to_dict().items():
                    row[f"{region.name}.{field}"] = value
            rows.append(row)
        return rows

    def to_dict(self) -> Dict[str, Any]:
        """The sweep-envelope dict (the executor's return shape)."""
        out: Dict[str, Any] = {
            "cases": [case.to_dict() for case in self.cases],
            "n_cases": len(self.cases),
        }
        if self.scenario is not None:
            out["scenario"] = self.scenario
        if self.spec is not None:
            out["spec"] = self.spec
        if self.schema_version is not None:
            out["schema_version"] = self.schema_version
        return out

    def to_json(self) -> str:
        """Canonical artifact serialization of this set.

        For a freshly loaded artifact this reproduces the input bytes
        exactly (modulo the file's trailing newline);
        :func:`~repro.results.io.write_artifact` of :meth:`to_dict`
        writes a byte-identical file.
        """
        return dumps_artifact(self.to_dict())
