"""Tests for the sweep executor: determinism, parallelism, artifacts."""

import gc
import json
import os
import weakref

import pytest

from repro.baselines import NoFaultTolerance
from repro.results import dumps_artifact
from repro.scenarios.executor import _start_method, run_sweep, shutdown_pool
from repro.scenarios.runner import case_to_dict, run_case
from repro.scenarios.spec import EventSpec, MatrixSpec, ScenarioSpec
from tests._schemes import extra_schemes


def small_spec(**kwargs):
    defaults = dict(
        name="sweep-t", duration_s=200.0, warmup_s=40.0, idle_per_region=4,
        checkpoint_period_s=60.0,
        matrix=MatrixSpec(apps=("bcp",), schemes=("base", "ms-8"), seeds=(3, 4)),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def test_run_case_produces_metrics():
    result = run_case(small_spec(), "bcp", "base", 3)
    assert result.report.per_region["region0"].output_tuples > 0
    assert result.region_stopped == [False]


def test_run_case_frees_its_simulator(monkeypatch):
    """A finished case is a reference cycle; run_case collects it, so
    dead cases cannot pile up between automatic collections."""
    from repro.scenarios import runner

    sims = []
    build_system = runner.build_system

    def recording_build_system(*args, **kwargs):
        system = build_system(*args, **kwargs)
        sims.append(weakref.ref(system.sim))
        return system

    monkeypatch.setattr(runner, "build_system", recording_build_system)
    gc.disable()
    try:
        run_case(small_spec(), "bcp", "ms-8", 3)
        assert len(sims) == 1 and sims[0]() is None
    finally:
        gc.enable()


def test_case_dict_is_strict_json():
    d = case_to_dict(run_case(small_spec(), "bcp", "base", 3))
    parsed = json.loads(json.dumps(d))  # would raise on NaN with allow_nan=False below
    json.dumps(d, allow_nan=False)
    assert parsed["app"] == "bcp"
    assert parsed["regions"]["region0"]["output_tuples"] > 0


def test_sweep_runs_the_whole_matrix_in_order():
    spec = small_spec()
    result = run_sweep(spec, jobs=1)
    assert result["n_cases"] == 4
    order = [(c["app"], c["scheme"], c["seed"]) for c in result["cases"]]
    assert order == [(app.key, scheme, seed)
                     for app, scheme, seed in spec.matrix.cases()]


def test_parallel_sweep_is_byte_identical_to_serial():
    """The acceptance bar: a 2 (scheme) x 2 (seed) sweep aggregated via
    --jobs 4 must serialize byte-for-byte the same as --jobs 1."""
    spec = small_spec()
    serial = dumps_artifact(run_sweep(spec, jobs=1))
    parallel = dumps_artifact(run_sweep(spec, jobs=4))
    assert serial == parallel


def test_parallel_sweep_with_events_is_deterministic():
    spec = small_spec(events=(
        EventSpec(kind="crash", time=100.0, phones=(3,)),
        EventSpec(kind="surge", time=60.0, factor=2.0, until=120.0),
    ))
    serial = dumps_artifact(run_sweep(spec, jobs=1))
    parallel = dumps_artifact(run_sweep(spec, jobs=2))
    assert serial == parallel


def test_sweep_writes_canonical_artifact(tmp_path):
    spec = small_spec(matrix=MatrixSpec(apps=("bcp",), schemes=("base",), seeds=(3,)))
    out = tmp_path / "artifacts" / "sweep.json"
    result = run_sweep(spec, jobs=1, out_path=str(out))
    assert out.exists()
    on_disk = out.read_text()
    assert on_disk == dumps_artifact(result) + "\n"
    assert json.loads(on_disk)["scenario"] == "sweep-t"


def test_sweep_rejects_bad_jobs():
    with pytest.raises(ValueError):
        run_sweep(small_spec(), jobs=0)


def test_parallel_sweep_spreads_cases_over_worker_processes(tmp_path):
    """The parallel half of the sweep claim as work counts: the artifact
    equals the serial one and the cases ran in more than one worker
    process.  (The speedup itself is a perf-tier wall-clock gate.)"""
    if _start_method() != "fork":
        pytest.skip("only forked workers inherit a patched scheme table")
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()

    def pid_recording():
        (pid_dir / str(os.getpid())).touch()
        return NoFaultTolerance()

    spec = small_spec(matrix=MatrixSpec(
        apps=("bcp",), schemes=("pid-recording",), seeds=(3, 4, 5, 6)))
    shutdown_pool()
    try:
        with extra_schemes({"pid-recording": pid_recording}):
            serial = dumps_artifact(run_sweep(spec, jobs=1))
            for path in pid_dir.iterdir():
                path.unlink()
            parallel = dumps_artifact(run_sweep(spec, jobs=2))
    finally:
        shutdown_pool()
    assert parallel == serial
    workers = {int(path.name) for path in pid_dir.iterdir()}
    assert os.getpid() not in workers
    assert len(workers) > 1
