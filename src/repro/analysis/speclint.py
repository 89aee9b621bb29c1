"""``lint-spec``: static checks for ScenarioSpec JSON files.

A spec file can be wrong in ways that never raise: an event scheduled
past ``duration_s`` silently never fires, an unknown app or scheme
label only explodes when the sweep starts, and a default-valued key
(``"telemetry": null``) changes the file's digest without changing the
run.  These checks catch all of that without executing anything, by
round-tripping the file through :class:`ScenarioSpec` and reusing the
existing ``late_events()`` path.

Spec findings use the same :class:`Finding` shape as Python findings;
since JSON has no useful line numbers after parsing, the ``code`` field
carries a descriptor like ``event kind=fail t=1200.0`` instead of a
source line.
"""

from __future__ import annotations

import json
from typing import List

from repro.analysis.core import Finding

SPEC_RULES = (
    "spec-invalid",
    "spec-late-event",
    "spec-unknown-app",
    "spec-unknown-scheme",
    "spec-noncanonical-key",
)


def _finding(rule: str, path: str, message: str, code: str) -> Finding:
    return Finding(rule=rule, path=path, line=1, col=0,
                   message=message, code=code)


def lint_spec_file(path: str) -> List[Finding]:
    """All spec findings for one JSON file (never raises)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [_finding("spec-invalid", path,
                         f"cannot parse spec file: {exc}", "parse")]
    if not isinstance(raw, dict):
        return [_finding("spec-invalid", path,
                         "spec file is not a JSON object", "parse")]
    return lint_spec_dict(raw, path)


def lint_spec_dict(raw: dict, path: str) -> List[Finding]:
    # Imported lazily: the Python-lint path must not drag the whole
    # scenario engine (numpy and friends) into every run.
    from repro.apps.registry import get_app
    from repro.scenarios.runner import scheme_factories
    from repro.scenarios.spec import ScenarioSpec
    from repro.util.simlog import get_logger

    findings: List[Finding] = []
    # from_dict logs the late-events warning at load time; the
    # spec-late-event finding below is its machine-readable version,
    # so mute the logger while round-tripping.
    log = get_logger()
    muted, log.disabled = log.disabled, True
    try:
        spec = ScenarioSpec.from_dict(raw)
    except Exception as exc:
        return [_finding("spec-invalid", path,
                         f"spec does not load: {exc}", "load")]
    finally:
        log.disabled = muted

    for event in spec.late_events():
        code = f"event kind={event.kind} t={event.time}"
        findings.append(_finding(
            "spec-late-event", path,
            f"event {event.kind!r} at t={event.time} is at/after "
            f"duration_s={spec.duration_s} and will never fire", code))

    for app in spec.matrix.apps:
        try:
            get_app(app.name)
        except Exception as exc:
            findings.append(_finding(
                "spec-unknown-app", path,
                f"matrix app {app.key!r}: {exc}", f"app={app.key}"))

    known_schemes = set(scheme_factories(spec.checkpoint_period_s))
    for scheme in spec.matrix.schemes:
        if scheme not in known_schemes:
            findings.append(_finding(
                "spec-unknown-scheme", path,
                f"matrix scheme {scheme!r} is not registered; known: "
                f"{', '.join(sorted(known_schemes))}",
                f"scheme={scheme}"))

    canonical = spec.to_dict()
    for key in sorted(set(raw) - set(canonical)):
        findings.append(_finding(
            "spec-noncanonical-key", path,
            f"key {key!r} is absent from the canonical form (default-"
            "valued or unknown); it changes the file digest without "
            "changing the run — drop it", f"key={key}"))

    return sorted(findings, key=Finding.sort_key)
