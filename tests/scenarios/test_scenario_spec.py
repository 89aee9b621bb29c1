"""Tests for the declarative scenario specification."""

import json

import pytest

from repro.scenarios.spec import EventSpec, MatrixSpec, RegionSpec, ScenarioSpec


def rich_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="everything",
        description="one of each",
        duration_s=600.0,
        warmup_s=100.0,
        n_regions=3,
        idle_per_region=4,
        regions=(
            RegionSpec(phones=8, idle=6, cpu_speed=1.3, charge_fraction=0.8),
            RegionSpec(cpu_speed=0.7),
        ),
        events=(
            EventSpec(kind="crash", time=200.0, phones=(3, 4)),
            EventSpec(kind="cascade", time=250.0, phones=(5, 6), interval=20.0),
            EventSpec(kind="depart", time=300.0, region=1, phones=(2,)),
            EventSpec(kind="churn", time=100.0, phones=(3, 4), interval=50.0, until=500.0),
            EventSpec(kind="join", time=320.0, region=2, count=2),
            EventSpec(kind="handoff", time=400.0, region=0, phones=(7,), to_region=1),
            EventSpec(kind="surge", time=150.0, factor=2.5, until=450.0),
            EventSpec(kind="battery", time=350.0, phones=(1,), charge=0.02),
        ),
        matrix=MatrixSpec(apps=("bcp", "signalguru"), schemes=("base", "ms-8"),
                          seeds=(3, 4)),
    )


# -- round trips -------------------------------------------------------------
def test_dict_round_trip():
    spec = rich_spec()
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_json_round_trip():
    spec = rich_spec()
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_json_is_canonical_and_parseable():
    text = rich_spec().to_json(indent=2)
    assert json.loads(text)  # strict JSON
    assert text == rich_spec().to_json(indent=2)


def test_from_dict_accepts_json_lists():
    # JSON turns tuples into lists; from_dict must coerce them back.
    data = json.loads(rich_spec().to_json())
    assert isinstance(data["events"][0]["phones"], list)
    assert ScenarioSpec.from_dict(data) == rich_spec()


# -- matrix ------------------------------------------------------------------
def test_matrix_expands_in_deterministic_order():
    from repro.apps.registry import AppRef

    m = MatrixSpec(apps=("a", "b"), schemes=("x",), seeds=(1, 2))
    a, b = AppRef.make("a"), AppRef.make("b")
    assert list(m.cases()) == [(a, "x", 1), (a, "x", 2),
                               (b, "x", 1), (b, "x", 2)]
    assert len(m) == 4


def test_matrix_rejects_empty_axes():
    with pytest.raises(ValueError):
        MatrixSpec(apps=())


# -- validation --------------------------------------------------------------
def test_unknown_event_kind_rejected():
    with pytest.raises(ValueError):
        EventSpec(kind="meteor", time=1.0)


def test_event_region_must_exist():
    with pytest.raises(ValueError):
        ScenarioSpec(name="s", events=(EventSpec(kind="crash", time=1.0, region=5),))


def test_handoff_target_must_exist():
    with pytest.raises(ValueError):
        ScenarioSpec(
            name="s", n_regions=2,
            events=(EventSpec(kind="handoff", time=1.0, phones=(1,), to_region=9),),
        )


def test_warmup_must_fit_duration():
    with pytest.raises(ValueError):
        ScenarioSpec(name="s", duration_s=100.0, warmup_s=100.0)


def test_surge_factor_positive():
    with pytest.raises(ValueError):
        EventSpec(kind="surge", time=1.0, factor=0.0)


# -- scaling -----------------------------------------------------------------
def test_scaled_compresses_everything_together():
    spec = rich_spec().scaled(0.5)
    assert spec.duration_s == 300.0
    assert spec.warmup_s == 50.0
    assert spec.checkpoint_period_s == 150.0
    crash = spec.events[0]
    assert crash.time == 100.0
    surge = spec.events[6]
    assert (surge.time, surge.until) == (75.0, 225.0)
    assert surge.factor == 2.5  # magnitudes don't scale


def test_quick_is_noop_for_short_scenarios():
    spec = ScenarioSpec(name="s", duration_s=200.0, warmup_s=50.0)
    assert spec.quick(300.0) is spec
