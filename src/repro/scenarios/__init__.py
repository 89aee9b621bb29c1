"""Scenario engine: declarative specs, a named library, parallel sweeps.

* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec` and friends, the
  declarative (dict/JSON round-trippable) description of a deployment,
  its timed event script, and the app × scheme × seed matrix.
* :mod:`repro.scenarios.events` — the :class:`EventDirector` that drives
  a built system from a spec's script.
* :mod:`repro.scenarios.registry` / :mod:`repro.scenarios.library` — the
  name -> spec registry and the built-in scenarios.
* :mod:`repro.scenarios.runner` — single-case execution, reduced to
  artifact rows.
* :mod:`repro.scenarios.executor` — the sweep executor: warm worker
  pool, case-level resume cache, streaming artifacts.
"""

from repro.scenarios import library as _library  # noqa: F401  (registers built-ins)
from repro.scenarios.events import EventDirector
from repro.scenarios.executor import (
    CaseCache,
    StreamingSweepWriter,
    run_sweep,
    shutdown_pool,
    spec_digest,
)
from repro.scenarios.registry import all_specs, get, names, register, unregister
from repro.scenarios.runner import (
    CaseResult,
    build_system,
    case_to_dict,
    case_to_type,
    register_scheme,
    run_case,
    unregister_scheme,
)
from repro.scenarios.spec import (
    EventSpec,
    MatrixSpec,
    RegionSpec,
    ScenarioSpec,
    TelemetrySpec,
)

__all__ = [
    "CaseCache",
    "CaseResult",
    "EventDirector",
    "EventSpec",
    "MatrixSpec",
    "RegionSpec",
    "ScenarioSpec",
    "StreamingSweepWriter",
    "TelemetrySpec",
    "all_specs",
    "build_system",
    "case_to_dict",
    "case_to_type",
    "get",
    "names",
    "register",
    "register_scheme",
    "run_case",
    "run_sweep",
    "shutdown_pool",
    "spec_digest",
    "unregister",
    "unregister_scheme",
]
