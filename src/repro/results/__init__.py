"""The results API: typed sweep artifacts, queries, and reports.

The one surface between "a sweep ran" and "a human, figure, or test
consumes numbers":

* :mod:`repro.results.model` — :class:`CaseResult` /
  :class:`RegionResult`, the schema-versioned typed form of one
  artifact row (round-trips byte-exactly).
* :mod:`repro.results.resultset` — :class:`ResultSet`, the query
  surface: ``load``/``from_sweep``, ``filter``/``group_by``,
  ``aggregate``/``relative_to``/``pivot``, ``to_rows``/``to_json``.
* :mod:`repro.results.io` — the canonical artifact serialization
  (:func:`dumps_artifact`) and its one atomic writer
  (:func:`write_artifact`).
* :mod:`repro.results.report` — ``repro report``'s renderer
  (:func:`build_report`: table / markdown / json).

>>> from repro.results import ResultSet
>>> rs = ResultSet.load("sweep.json")
>>> rs.filter(app="bcp").group_by("scheme").aggregate("throughput")
>>> rs.relative_to("base", metrics=("throughput", "latency"))
"""

from repro.results.io import dumps_artifact, load_artifact, write_artifact
from repro.results.model import (
    AXES,
    SCHEMA_VERSION,
    CaseResult,
    RegionResult,
)
from repro.results.report import DEFAULT_METRICS, build_report
from repro.results.resultset import (
    STAT_NAMES,
    Aggregate,
    GroupedResults,
    Pivot,
    ResultSet,
)

__all__ = [
    "AXES",
    "Aggregate",
    "CaseResult",
    "DEFAULT_METRICS",
    "GroupedResults",
    "Pivot",
    "RegionResult",
    "ResultSet",
    "SCHEMA_VERSION",
    "STAT_NAMES",
    "build_report",
    "dumps_artifact",
    "load_artifact",
    "write_artifact",
]
