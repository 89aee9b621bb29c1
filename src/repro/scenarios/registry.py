"""The named-scenario registry.

A flat name -> :class:`~repro.scenarios.spec.ScenarioSpec` map.  The
built-in library (:mod:`repro.scenarios.library`) registers itself when
the package is imported; applications and tests can register their own
specs the same way.
"""

from __future__ import annotations

from typing import Dict, List

from repro.scenarios.spec import ScenarioSpec

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add ``spec`` under its name; returns it for chaining."""
    if spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ScenarioSpec:
    """Look a scenario up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(names()) or "<none>"
        raise KeyError(f"unknown scenario {name!r}; registered: {known}") from None


def names() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY)


def all_specs() -> List[ScenarioSpec]:
    """Every registered spec, sorted by name."""
    return [_REGISTRY[n] for n in names()]
