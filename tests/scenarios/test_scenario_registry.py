"""Tests for the scenario registry and the built-in library."""

import pytest

from repro import scenarios
from repro.scenarios import registry
from repro.scenarios.spec import ScenarioSpec


def test_library_registers_at_least_six_scenarios():
    assert len(scenarios.names()) >= 6


def test_expected_names_present():
    names = scenarios.names()
    for expected in ("paper-fig8", "rush-hour-churn", "flash-crowd",
                     "failure-cascade", "handoff-storm", "heterogeneous-fleet"):
        assert expected in names


def test_get_returns_the_registered_spec():
    spec = scenarios.get("paper-fig8")
    assert spec.name == "paper-fig8"
    assert len(spec.matrix) == 14  # 2 apps x 7 schemes


def test_get_unknown_name_is_a_helpful_error():
    with pytest.raises(KeyError, match="registered"):
        scenarios.get("nope")


def test_register_rejects_duplicates(monkeypatch):
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    spec = registry.register(ScenarioSpec(name="tmp-dup"))
    with pytest.raises(ValueError, match="already registered"):
        registry.register(ScenarioSpec(name="tmp-dup"))
    assert scenarios.get("tmp-dup") is spec


def test_every_library_spec_round_trips():
    for spec in scenarios.all_specs():
        assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_library_covers_event_kinds_beyond_the_old_harness():
    kinds = {ev.kind for spec in scenarios.all_specs() for ev in spec.events}
    # The old harness could only express one crash burst and one departure
    # burst; the library must exercise the new vocabulary.
    for new_kind in ("cascade", "churn", "join", "handoff", "surge", "battery"):
        assert new_kind in kinds


def test_library_includes_heterogeneous_regions():
    spec = scenarios.get("heterogeneous-fleet")
    speeds = {r.cpu_speed for r in spec.regions}
    assert len(speeds) > 1
