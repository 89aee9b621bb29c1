"""Delta-debug shrinking: the acceptance path.

A seeded synthetic bug (the broken-preservation fixture) plus a noisy
3-event scenario must shrink to a minimal failing spec — at most 3
events, in practice one — that still re-triggers the same violation
through ``repro scenario run <file> --verify``.
"""

import json

import pytest

from repro import cli
from repro.scenarios.spec import EventSpec, MatrixSpec, ScenarioSpec
from repro.verify.shrink import failing_invariants, shrink
from tests._schemes import BROKEN_REPLAY, broken_replay_scheme


def _noisy_failing_spec():
    """A post-checkpoint crash buried among decoy events."""
    return ScenarioSpec(
        name="fuzz-bug",
        description="synthetic failing spec for the shrink acceptance test",
        duration_s=300.0,
        warmup_s=10.0,
        n_regions=1,
        phones_per_region=8,
        idle_per_region=2,
        checkpoint_period_s=60.0,
        events=(
            EventSpec(kind="battery", time=100.0, phones=(5,), charge=0.5),
            EventSpec(kind="crash", time=203.0, phones=(2, 3)),
            EventSpec(kind="surge", time=120.0, factor=1.5, until=150.0),
        ),
        matrix=MatrixSpec(apps=("signalguru",), schemes=(BROKEN_REPLAY,),
                          seeds=(3,)),
    )


def test_shrink_produces_minimal_retriggering_spec(tmp_path):
    spec_path = tmp_path / "fuzz-bug.json"
    spec_path.write_text(_noisy_failing_spec().to_json(indent=2) + "\n")
    with broken_replay_scheme():
        # The acceptance workflow, end to end through the CLI:
        # shrink the failing spec file...
        assert cli.main(["fuzz", "shrink", str(spec_path)]) == 0
        min_path = tmp_path / "fuzz-bug.min.json"
        assert min_path.exists()
        minimized = ScenarioSpec.from_json(min_path.read_text())
        assert minimized.name.endswith(".min")
        assert len(minimized.events) <= 3
        # ...the decoys are gone and the crash is what survived...
        assert {ev.kind for ev in minimized.events} == {"crash"}
        # ...and the minimized file re-triggers via scenario run --verify.
        assert cli.main(["scenario", "run", str(min_path), "--verify"]) == 1
        assert "replay-gap" in failing_invariants(minimized)
    # Canonical JSON: the reproducer is diffable/committable as-is.
    assert json.loads(min_path.read_text())["name"] == minimized.name


def test_shrink_refuses_a_passing_spec():
    spec = ScenarioSpec(
        name="passing", duration_s=120.0, warmup_s=10.0,
        checkpoint_period_s=40.0,
        matrix=MatrixSpec(apps=("signalguru",), schemes=("base",),
                          seeds=(3,)))
    with pytest.raises(ValueError, match="does not violate"):
        shrink(spec)


def test_shrink_rejects_an_invariant_the_spec_does_not_violate():
    with broken_replay_scheme():
        with pytest.raises(ValueError, match="not 'duplication-free'"):
            shrink(_noisy_failing_spec(), invariant="duplication-free")


def test_shrink_respects_the_run_cap():
    with broken_replay_scheme():
        minimized, runs = shrink(_noisy_failing_spec(), max_runs=3)
        assert runs <= 3
        # Budget exhausted early: the spec may be unshrunk, but it must
        # still be a *failing* spec (shrink never returns a passing one).
        assert failing_invariants(minimized)
