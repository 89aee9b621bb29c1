"""The application registry: named apps with tunable parameter schemas.

Applications register a factory plus (optionally) a params dataclass:

    register_app("bcp", BCPApp, BCPParams, description="...")

and the rest of the platform refers to them by :class:`AppRef` — a
JSON-round-trippable reference that is either a bare name (``"bcp"``)
or a name with parameter overrides
(``{"name": "bcp", "params": {"n_counters": 8}}``).  Scenario matrices,
the sweep executor and the bench harness all accept refs, so any app
axis of an experiment can vary application parameters declaratively.

Refs are hashable and canonical: two refs with the same name and the
same parameter values compare equal regardless of dict ordering, and
:attr:`AppRef.key` is a deterministic human-readable case key
(``"bcp[n_counters=8]"``) used in sweep artifacts.

The built-in applications register themselves when :mod:`repro.apps`
is imported (which importing this module triggers, as its parent
package).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.app import AppSpec

#: Anything :meth:`AppRef.coerce` accepts.
AppRefLike = Union["AppRef", str, Mapping[str, Any]]


def _canonical_params(params: Optional[Mapping[str, Any]]) -> str:
    """Canonical compact JSON for a parameter mapping (sorted keys)."""
    if not params:
        return "{}"
    if not isinstance(params, Mapping):
        raise ValueError(f"app params must be a mapping, got {params!r}")
    for k in params:
        if not isinstance(k, str):
            raise ValueError(f"app params must have string keys, got {k!r}")
    try:
        return json.dumps(dict(params), sort_keys=True,
                          separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"app params must be JSON-serializable: {exc}") from exc


@dataclass(frozen=True)
class AppRef:
    """A (name, params) application reference.

    ``params_json`` holds the canonical JSON encoding of the parameter
    overrides, which makes refs hashable (matrix axes are frozen
    tuples) and equality order-insensitive.  Use :meth:`make` or
    :meth:`coerce` rather than the raw constructor.
    """

    name: str
    params_json: str = "{}"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("app ref needs a name")

    @classmethod
    def make(cls, name: str, params: Optional[Mapping[str, Any]] = None) -> "AppRef":
        """A ref for ``name`` with optional parameter overrides."""
        return cls(name=name, params_json=_canonical_params(params))

    @classmethod
    def coerce(cls, value: AppRefLike) -> "AppRef":
        """Accept a ref, a bare name, or a ``{"name", "params"}`` mapping."""
        if isinstance(value, AppRef):
            return value
        if isinstance(value, str):
            return cls.make(value)
        if isinstance(value, Mapping):
            extra = set(value) - {"name", "params"}
            if extra or "name" not in value:
                raise ValueError(
                    "app ref mapping must look like "
                    f'{{"name": ..., "params": {{...}}}}, got {dict(value)!r}'
                )
            return cls.make(value["name"], value.get("params"))
        raise ValueError(f"cannot interpret {value!r} as an app ref")

    # -- views ----------------------------------------------------------------
    @property
    def params(self) -> Dict[str, Any]:
        """The parameter overrides as a plain dict (possibly empty)."""
        return json.loads(self.params_json)

    @property
    def key(self) -> str:
        """Deterministic case key: ``"bcp"`` or ``"bcp[n_counters=8]"``.

        This is the string sweep artifacts carry in their ``"app"``
        field; bare-name refs keep the historical bare-string form.
        """
        params = self.params
        if not params:
            return self.name
        inner = ",".join(
            f"{k}={json.dumps(v, sort_keys=True, separators=(',', ':'))}"
            for k, v in sorted(params.items())
        )
        return f"{self.name}[{inner}]"

    def to_jsonable(self) -> Union[str, Dict[str, Any]]:
        """JSON form: the bare name when there are no params (so existing
        artifacts stay byte-identical), else the mapping form."""
        params = self.params
        if not params:
            return self.name
        return {"name": self.name, "params": params}

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return self.key


#: JSON-level type checks for scalar dataclass fields.  ``bool`` is a
#: subclass of ``int`` in Python, so it is excluded from the numeric
#: checks explicitly — ``{"n_counters": true}`` must not pass.
_SCALAR_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


def _field_type_name(field: "dataclasses.Field") -> str:
    """The field's annotation as a string (modules use PEP-563 strings)."""
    t = field.type
    return t if isinstance(t, str) else getattr(t, "__name__", str(t))


def _json_type_kind(type_name: str) -> Optional[str]:
    """Classify a field type for JSON refs: the scalar-check key, or
    ``"sequence"``, or None for code-only types.  ``Optional[...]`` is
    stripped first.  The single source of truth for both validation
    (:meth:`AppEntry._check_override`) and the ``app show`` schema
    (:meth:`AppEntry.json_tunable`)."""
    inner = type_name
    if inner.startswith("Optional[") and inner.endswith("]"):
        inner = inner[len("Optional["):-1]
    if inner in _SCALAR_CHECKS:
        return inner
    if inner.startswith(("Tuple[", "List[", "tuple", "list")):
        return "sequence"
    return None


@dataclass(frozen=True)
class AppEntry:
    """One registered application."""

    name: str
    #: ``factory(params) -> AppSpec``; ``params`` is an instance of
    #: ``params_cls`` or None for defaults.
    factory: Callable[..., AppSpec]
    #: The dataclass of tunable parameters (None = app takes none).
    params_cls: Optional[type] = None
    description: str = ""

    def make_params(self, overrides: Mapping[str, Any]) -> Any:
        """Build a validated params object from JSON-level overrides.

        Validates names *and* JSON-level value types against the params
        dataclass, so a bad ref fails here with a message naming the
        parameter — not later, deep inside graph building.
        """
        if not overrides:
            return None
        if self.params_cls is None:
            raise ValueError(
                f"app {self.name!r} takes no parameters, got {dict(overrides)!r}"
            )
        fields = {f.name: f for f in dataclasses.fields(self.params_cls)}
        unknown = sorted(set(overrides) - set(fields))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {unknown} for app {self.name!r}; "
                f"tunable: {sorted(fields)}"
            )
        for name, value in overrides.items():
            self._check_override(name, _field_type_name(fields[name]), value)
        return self.params_cls(**overrides)

    def _check_override(self, param: str, type_name: str, value: Any) -> None:
        """Type-check one JSON-level override against its field type."""
        if value is None and type_name.startswith("Optional["):
            return
        kind = _json_type_kind(type_name)
        if kind is None:
            # Nested dataclasses (BCP's costs, SignalGuru's signal
            # model): construct them in code, not through a JSON ref.
            raise ValueError(
                f"parameter {param!r} of app {self.name!r} has type "
                f"{type_name} and is code-only (not expressible in a "
                "JSON app ref)"
            )
        if kind == "sequence":
            if not isinstance(value, (list, tuple)):
                raise ValueError(
                    f"parameter {param!r} of app {self.name!r} expects a "
                    f"list ({type_name}), got {value!r}"
                )
        elif not _SCALAR_CHECKS[kind](value):
            raise ValueError(
                f"parameter {param!r} of app {self.name!r} expects "
                f"{kind}, got {value!r}"
            )

    def json_tunable(self, field: "dataclasses.Field") -> bool:
        """Whether a params field can be set through a JSON app ref."""
        return _json_type_kind(_field_type_name(field)) is not None

    def create(self, ref: Optional[AppRefLike] = None) -> AppSpec:
        """A fresh :class:`AppSpec` instance for ``ref`` (default params
        when ``ref`` is None or carries no overrides)."""
        overrides = AppRef.coerce(ref).params if ref is not None else {}
        params = self.make_params(overrides)
        return self.factory(params) if params is not None else self.factory()

    def param_fields(self) -> List[Tuple[str, str, str]]:
        """``(name, type, default)`` rows for the tunable parameters.

        Code-only fields (nested dataclasses a JSON ref cannot express)
        are marked in the type column.
        """
        if self.params_cls is None:
            return []
        rows = []
        for f in dataclasses.fields(self.params_cls):
            type_name = _field_type_name(f)
            if not self.json_tunable(f):
                type_name += " (code-only)"
            if f.default is not dataclasses.MISSING:
                default = repr(f.default)
            elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                default = repr(f.default_factory())  # type: ignore[misc]
            else:
                default = "<required>"
            rows.append((f.name, type_name, default))
        return rows


_REGISTRY: Dict[str, AppEntry] = {}


def register_app(
    name: str,
    factory: Callable[..., AppSpec],
    params_cls: Optional[type] = None,
    description: str = "",
) -> AppEntry:
    """Register an application under ``name``; returns its entry."""
    if name in _REGISTRY:
        raise ValueError(f"app {name!r} is already registered")
    entry = AppEntry(name=name, factory=factory, params_cls=params_cls,
                     description=description)
    _REGISTRY[name] = entry
    return entry


def app_names() -> List[str]:
    """Registered application names, sorted."""
    return sorted(_REGISTRY)


def all_apps() -> List[AppEntry]:
    """Every registered entry, sorted by name."""
    return [_REGISTRY[n] for n in app_names()]


def get_app(name: str) -> AppEntry:
    """Look an application up by name.

    Raises :class:`ValueError` naming the known apps — the error a
    scenario with a typo'd app name surfaces.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(app_names()) or "<none>"
        raise ValueError(
            f"unknown app {name!r}; registered apps: {known}"
        ) from None


def create_app(ref: AppRefLike) -> AppSpec:
    """Instantiate a fresh app from any ref form (name/dict/:class:`AppRef`)."""
    ref = AppRef.coerce(ref)
    return get_app(ref.name).create(ref)
