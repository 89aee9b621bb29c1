"""The harness must *catch* a real defect: the broken-preservation
fixture (an off-by-one prune that loses one checkpoint interval of
replay input) trips ``replay-gap`` on a post-checkpoint crash, while
vanilla ms-8 stays clean on the identical scenario.

SignalGuru is the app here because its per-node state is small enough
that checkpoint waves actually *complete* within the run (v1 commits
around t=137 with a 60s period) — the defect only fires on a crash
after a completed checkpoint.
"""

import pytest

from repro.scenarios.runner import run_case
from repro.scenarios.spec import EventSpec, MatrixSpec, ScenarioSpec
from tests._schemes import BROKEN_REPLAY, broken_replay_scheme


def _crash_spec(name="verify-crash"):
    return ScenarioSpec(
        name=name,
        description="post-checkpoint crash for harness fixtures",
        duration_s=300.0,
        warmup_s=10.0,
        n_regions=1,
        phones_per_region=8,
        idle_per_region=2,
        checkpoint_period_s=60.0,
        events=(EventSpec(kind="crash", time=200.0, phones=(2,)),),
        matrix=MatrixSpec(apps=("signalguru",), schemes=("ms-8",), seeds=(3,)),
    )


@pytest.fixture(scope="module")
def spec():
    return _crash_spec()


def test_vanilla_ms8_is_clean_on_the_crash(spec):
    result = run_case(spec, "signalguru", "ms-8", 3, verify=True)
    assert result.violations == ()
    assert result.report.recoveries >= 1


def test_broken_preservation_trips_replay_gap(spec):
    with broken_replay_scheme():
        result = run_case(spec, "signalguru", BROKEN_REPLAY, 3, verify=True)
    names = {v.invariant for v in result.violations}
    assert "replay-gap" in names
    gap = next(v for v in result.violations if v.invariant == "replay-gap")
    # The defect loses real input: fewer tuples replayed than ingested
    # since the restored cut, with the evidence window attached.
    assert gap.details["replayed"] < gap.details["expected"]
    assert gap.region == "region0"
    assert gap.window


def test_violations_are_deterministic(spec):
    with broken_replay_scheme():
        a = run_case(spec, "signalguru", BROKEN_REPLAY, 3, verify=True)
        b = run_case(spec, "signalguru", BROKEN_REPLAY, 3, verify=True)
    assert [v.to_dict() for v in a.violations] == \
        [v.to_dict() for v in b.violations]


def test_broken_scheme_unregisters_cleanly():
    from repro.scenarios import runner

    with broken_replay_scheme():
        assert BROKEN_REPLAY in runner.scheme_factories()
    assert BROKEN_REPLAY not in runner.scheme_factories()
