"""Tests for the application registry and AppRef references."""

import json

import pytest

import repro.apps  # noqa: F401  (registers the built-ins)
from repro.apps import registry
from repro.apps.registry import (
    AppRef,
    app_names,
    create_app,
    get_app,
    register_app,
)
from repro.core.app import AppSpec


# -- AppRef ------------------------------------------------------------------
def test_ref_from_bare_name():
    ref = AppRef.coerce("bcp")
    assert ref.name == "bcp"
    assert ref.params == {}
    assert ref.key == "bcp"
    assert ref.to_jsonable() == "bcp"


def test_ref_from_mapping_and_canonical_equality():
    a = AppRef.coerce({"name": "bcp", "params": {"n_counters": 8, "crowd_mean": 2.5}})
    b = AppRef.coerce({"name": "bcp", "params": {"crowd_mean": 2.5, "n_counters": 8}})
    assert a == b
    assert hash(a) == hash(b)
    assert a.key == "bcp[crowd_mean=2.5,n_counters=8]"
    assert a.params == {"n_counters": 8, "crowd_mean": 2.5}


def test_ref_json_round_trip():
    for form in ("bcp", {"name": "edgeml", "params": {"n_stages": 2}}):
        ref = AppRef.coerce(form)
        recovered = AppRef.coerce(json.loads(json.dumps(ref.to_jsonable())))
        assert recovered == ref


def test_ref_rejects_non_mapping_params():
    with pytest.raises(ValueError, match="mapping"):
        AppRef.coerce({"name": "edgeml", "params": [["n_stages", 2]]})
    with pytest.raises(ValueError, match="mapping"):
        AppRef.make("edgeml", [("n_stages", 2)])


def test_ref_rejects_garbage():
    with pytest.raises(ValueError):
        AppRef.coerce({"params": {"x": 1}})  # no name
    with pytest.raises(ValueError):
        AppRef.coerce({"name": "bcp", "extra": 1})
    with pytest.raises(ValueError):
        AppRef.coerce(42)
    with pytest.raises(ValueError):
        AppRef.make("bcp", {"fn": object()})  # not JSON-serializable
    with pytest.raises(ValueError):
        AppRef.make("")


# -- registry lookups --------------------------------------------------------
def test_builtins_are_registered():
    assert app_names() == ["bcp", "edgeml", "signalguru"]


def test_unknown_app_error_lists_candidates():
    with pytest.raises(ValueError, match="bcp, edgeml, signalguru"):
        get_app("nope")


def test_duplicate_registration_rejected():
    entry = get_app("bcp")
    with pytest.raises(ValueError, match="already registered"):
        register_app("bcp", entry.factory, entry.params_cls)
    assert get_app("bcp") is entry


def test_register_and_unregister_custom_app(monkeypatch):
    class TinyApp(AppSpec):
        name = "tiny"

        def build_graph(self):  # pragma: no cover - never called
            raise NotImplementedError

        def build_placement(self, phone_ids):  # pragma: no cover
            raise NotImplementedError

        def build_workloads(self, rng, region_index):  # pragma: no cover
            raise NotImplementedError

    with monkeypatch.context() as patch:
        patch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        register_app("tiny", TinyApp)
        assert isinstance(create_app("tiny"), TinyApp)
        with pytest.raises(ValueError, match="takes no parameters"):
            create_app({"name": "tiny", "params": {"x": 1}})
    assert "tiny" not in app_names()


# -- instantiation -----------------------------------------------------------
def test_create_app_with_default_and_overridden_params():
    from repro.apps import BCPApp

    default = create_app("bcp")
    assert isinstance(default, BCPApp)
    assert default.params.n_counters == 4

    tuned = create_app({"name": "bcp", "params": {"n_counters": 2}})
    assert tuned.params.n_counters == 2
    # The tuned graph really changes shape.
    assert "C1" in tuned.build_graph().names()
    assert "C2" not in tuned.build_graph().names()


def test_create_app_rejects_unknown_params():
    with pytest.raises(ValueError, match="n_boosters"):
        create_app({"name": "bcp", "params": {"n_boosters": 2}})


def test_create_app_params_are_validated_by_the_dataclass():
    with pytest.raises(ValueError):
        create_app({"name": "bcp", "params": {"n_counters": 0}})


def test_create_app_type_checks_json_overrides():
    with pytest.raises(ValueError, match="'n_stages'.*expects int"):
        create_app({"name": "edgeml", "params": {"n_stages": 2.0}})
    with pytest.raises(ValueError, match="expects float"):
        create_app({"name": "bcp", "params": {"camera_period_s": "fast"}})
    with pytest.raises(ValueError, match="expects int"):
        create_app({"name": "bcp", "params": {"n_counters": True}})
    # int is acceptable where float is declared.
    app = create_app({"name": "bcp", "params": {"camera_period_s": 2}})
    assert app.params.camera_period_s == 2


def test_code_only_params_are_rejected_with_a_clear_error():
    with pytest.raises(ValueError, match="'costs'.*code-only"):
        create_app({"name": "bcp", "params": {"costs": {"noise_filter": 0.1}}})
    with pytest.raises(ValueError, match="'signal'.*code-only"):
        create_app({"name": "signalguru", "params": {"signal": {}}})


def test_tuple_params_accept_json_lists():
    app = create_app({"name": "edgeml",
                      "params": {"n_stages": 2, "split_points": [6]}})
    assert app.params.split_points == (6,)
    with pytest.raises(ValueError, match="expects a list"):
        create_app({"name": "edgeml",
                    "params": {"n_stages": 2, "split_points": 6}})


def test_param_fields_schema():
    fields = {name: (type_name, default)
              for name, type_name, default in get_app("edgeml").param_fields()}
    assert fields["n_stages"] == ("int", "4")
    assert "camera_period_s" in fields
    # Nested-dataclass fields are flagged as not JSON-tunable.
    bcp_fields = dict((name, t) for name, t, _ in get_app("bcp").param_fields())
    assert bcp_fields["costs"].endswith("(code-only)")
    assert bcp_fields["n_counters"] == "int"
