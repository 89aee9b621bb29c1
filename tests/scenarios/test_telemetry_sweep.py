"""Sweep-level telemetry determinism: timelines must be byte-identical
serial vs parallel vs resumed, and enabling telemetry must not change a
single artifact byte."""

import dataclasses
import json
import os

import pytest

from repro.scenarios import TelemetrySpec, get, shutdown_pool
from repro.scenarios.executor import CaseCache, run_sweep, spec_digest


def _specs():
    spec = get("flash-crowd").quick()
    spec_t = dataclasses.replace(spec, telemetry=TelemetrySpec(interval_s=30.0))
    return spec, spec_t


def _read_all(dirname):
    return {name: open(os.path.join(dirname, name), "rb").read()
            for name in sorted(os.listdir(dirname))}


@pytest.fixture(scope="module")
def serial_sweep(tmp_path_factory):
    """One serial telemetry sweep: the reference rows + timeline bytes."""
    _spec, spec_t = _specs()
    tdir = str(tmp_path_factory.mktemp("serial-timelines"))
    result = run_sweep(spec_t, jobs=1, timelines_dir=tdir)
    return spec_t, result, _read_all(tdir)


def test_rows_unchanged_by_telemetry(serial_sweep):
    spec, _spec_t = _specs()
    _spec_t2, result_t, _files = serial_sweep
    result = run_sweep(spec, jobs=1)
    assert result["cases"] == result_t["cases"]
    # The envelope differs only in the spec's telemetry knob.
    assert result["scenario"] == result_t["scenario"]
    assert result["n_cases"] == result_t["n_cases"]


def test_sweep_envelope_unchanged(serial_sweep):
    """Timelines ride beside the artifact: the returned dict keeps the
    exact ResultSet envelope (no extra keys)."""
    _spec_t, result, _files = serial_sweep
    assert sorted(result) == ["cases", "n_cases", "scenario", "spec"]


def test_timeline_files_are_valid_artifacts(serial_sweep):
    from repro.telemetry import Timeline

    _spec_t, result, files = serial_sweep
    assert len(files) == result["n_cases"]
    for name, data in files.items():
        assert name.endswith(".timeline.json")
        tl = Timeline.from_dict(json.loads(data))
        assert len(tl) > 0
        assert tl.scenario == "flash-crowd"


def test_parallel_timelines_byte_identical(serial_sweep, tmp_path):
    spec_t, result, files = serial_sweep
    tdir = str(tmp_path / "par")
    try:
        result2 = run_sweep(spec_t, jobs=2, timelines_dir=tdir)
    finally:
        shutdown_pool()
    assert result2["cases"] == result["cases"]
    assert _read_all(tdir) == files


def test_resumed_timelines_byte_identical(serial_sweep, tmp_path):
    """Kill-half-way then resume: rows and timeline files both come out
    byte-identical, and cached cases are not re-simulated."""
    from repro.scenarios import executor

    spec_t, result, files = serial_sweep
    cache_dir = str(tmp_path / "cache")
    run_sweep(spec_t, resume_dir=cache_dir, max_cases=1)
    runs_before = executor.stats["cases_run"]
    tdir = str(tmp_path / "resumed")
    result2 = run_sweep(spec_t, resume_dir=cache_dir, timelines_dir=tdir)
    assert executor.stats["cases_run"] - runs_before == 1  # one case cached
    assert result2["cases"] == result["cases"]
    assert _read_all(tdir) == files


def test_cached_row_without_sidecar_is_a_miss(serial_sweep, tmp_path):
    """A telemetry resume needs both halves: dropping the timeline
    sidecar forces the case to re-run (and re-persist both)."""
    from repro.scenarios import executor

    spec_t, result, files = serial_sweep
    cache_dir = str(tmp_path / "cache")
    run_sweep(spec_t, resume_dir=cache_dir)
    cache = CaseCache(cache_dir)
    digest = spec_digest(spec_t)
    app, scheme, seed = spec_t.matrix.apps[0], spec_t.matrix.schemes[0], \
        spec_t.matrix.seeds[0]
    sidecar = cache.timeline_path(digest, app.key, scheme, seed)
    assert os.path.exists(sidecar)
    os.unlink(sidecar)
    runs_before = executor.stats["cases_run"]
    result2 = run_sweep(spec_t, resume_dir=cache_dir)
    assert executor.stats["cases_run"] - runs_before == 1
    assert result2["cases"] == result["cases"]
    assert os.path.exists(sidecar)  # re-persisted


def test_cli_sidecar_names_match_the_resume_cache(tmp_path):
    """A ``--telemetry --out`` sidecar and the resume cache's timeline
    for the same case share one file name."""
    from repro import cli

    out, cache_dir = tmp_path / "sweep.json", tmp_path / "cache"
    assert cli.main(["scenario", "sweep", "flash-crowd", "--quick", "--telemetry",
                     "--out", str(out), "--resume", "--cache-dir", str(cache_dir)]) == 0
    (digest,) = os.listdir(cache_dir)
    cache, matrix = CaseCache(str(cache_dir)), _specs()[1].matrix
    cached = sorted(
        os.path.basename(cache.timeline_path(digest, app.key, scheme, seed))
        for app in matrix.apps for scheme in matrix.schemes for seed in matrix.seeds
    )
    assert sorted(os.listdir(tmp_path / "sweep.timelines")) == cached
    assert sorted(n for n in os.listdir(cache_dir / digest)
                  if n.endswith(".timeline.json")) == cached


def test_timelines_dir_requires_telemetry(tmp_path):
    spec, _spec_t = _specs()
    with pytest.raises(ValueError, match="telemetry"):
        run_sweep(spec, timelines_dir=str(tmp_path / "nope"))


def test_telemetry_spec_round_trips_and_scales():
    from repro.scenarios import ScenarioSpec

    _spec, spec_t = _specs()
    d = spec_t.to_dict()
    assert d["telemetry"] == {"interval_s": 30.0}
    back = ScenarioSpec.from_dict(json.loads(json.dumps(d)))
    assert back.telemetry == TelemetrySpec(interval_s=30.0)
    # scaled() keeps the snapshot count, not the wall interval.
    half = spec_t.scaled(0.5)
    assert half.telemetry.interval_s == 15.0


def test_telemetry_key_absent_when_off():
    """The to_dict() convention that keeps pre-telemetry artifacts,
    golden hashes, and spec digests byte-identical."""
    spec, _spec_t = _specs()
    assert "telemetry" not in spec.to_dict()
    assert spec_digest(spec) != spec_digest(_spec_t)
