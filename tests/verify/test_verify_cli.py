"""``scenario run/sweep --verify``: violations land on stderr and in
the exit status, while the artifact bytes stay identical to a disarmed
sweep — violations ride beside the artifact, never inside it."""

from repro import cli
from repro.scenarios.spec import EventSpec, MatrixSpec, ScenarioSpec
from tests._schemes import BROKEN_REPLAY, broken_replay_scheme


def _write(tmp_path, spec):
    path = tmp_path / f"{spec.name}.json"
    path.write_text(spec.to_json(indent=2) + "\n")
    return str(path)


def _crash_spec(scheme, name):
    return ScenarioSpec(
        name=name, duration_s=300.0, warmup_s=10.0,
        phones_per_region=8, idle_per_region=2,
        checkpoint_period_s=60.0,
        events=(EventSpec(kind="crash", time=200.0, phones=(2,)),),
        matrix=MatrixSpec(apps=("signalguru",), schemes=(scheme,),
                          seeds=(3,)))


def test_clean_run_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, _crash_spec("ms-8", "clean"))
    assert cli.main(["scenario", "run", path, "--verify"]) == 0
    captured = capsys.readouterr()
    assert "0 violation(s)" in captured.err
    assert "VIOLATION" not in captured.err


def test_violating_run_exits_one_with_stderr_report(tmp_path, capsys):
    path = _write(tmp_path, _crash_spec(BROKEN_REPLAY, "broken"))
    with broken_replay_scheme():
        assert cli.main(["scenario", "run", path, "--verify"]) == 1
    captured = capsys.readouterr()
    assert "VIOLATION [replay-gap]" in captured.err
    assert "scheme=broken-replay" in captured.err


def test_sweep_verify_artifact_bytes_are_unchanged(tmp_path, capsys):
    """An armed sweep's on-disk artifact is byte-identical to a
    disarmed one, even when the sweep found violations."""
    path = _write(tmp_path, _crash_spec(BROKEN_REPLAY, "broken"))
    plain, armed = str(tmp_path / "plain.json"), str(tmp_path / "armed.json")
    with broken_replay_scheme():
        assert cli.main(["scenario", "sweep", path, "--out", plain]) == 0
        assert cli.main(
            ["scenario", "sweep", path, "--verify", "--out", armed]) == 1
    capsys.readouterr()  # drain
    with open(plain, "rb") as f1, open(armed, "rb") as f2:
        assert f1.read() == f2.read()


def test_unknown_scenario_name_still_errors(capsys):
    assert cli.main(["scenario", "run", "no-such-thing", "--verify"]) == 2
    assert "error" in capsys.readouterr().err
