"""Executor robustness: pool-worker death, case errors, corrupt cache.

The sweep executor's failure-injection story: a SIGKILLed pool worker
must cost one pool rebuild, a raising
case must become a structured error record after one retry, and a
corrupt resume-cache entry must degrade to a warned cache miss.
"""

import json
import logging
import os

import pytest

from repro.scenarios import executor
from repro.scenarios.executor import CaseCache, run_sweep, spec_digest
from repro.scenarios.spec import MatrixSpec, ScenarioSpec
from tests._schemes import CHAOS_ERROR, CHAOS_KILL, chaos_schemes


def small_spec(**kwargs):
    defaults = dict(
        name="robust-t", duration_s=200.0, warmup_s=40.0, idle_per_region=4,
        checkpoint_period_s=60.0,
        matrix=MatrixSpec(apps=("bcp",), schemes=("base", "ms-8"), seeds=(3, 4)),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def _stats():
    return dict(executor.stats)


@pytest.fixture
def fresh_pool():
    """Pool workers see the chaos schemes only when forked while they
    are armed: start no sweep on a warm pool from before, and leak none
    that still has them."""
    executor.shutdown_pool()
    yield
    executor.shutdown_pool()


def _needs_fork(jobs):
    if jobs > 1 and executor._start_method() != "fork":
        pytest.skip("only forked workers inherit the chaos schemes")


def test_sigkilled_pool_worker_costs_one_rebuild_not_the_sweep(
        tmp_path, fresh_pool):
    """S1: a case SIGKILLs its pool worker mid-sweep; the pool is
    rebuilt once, the case retried, and the artifact still matches a
    serial run."""
    _needs_fork(2)
    kill_dir = tmp_path / "kills"
    kill_dir.mkdir()

    with chaos_schemes(kill_dir=str(kill_dir), kill_limit=1):
        spec = small_spec(matrix=MatrixSpec(
            apps=("bcp",), schemes=("base", CHAOS_KILL), seeds=(3, 4)))
        before = _stats()
        parallel = tmp_path / "parallel.json"
        envelope = run_sweep(spec, jobs=2, out_path=str(parallel))
        after = _stats()

        # Exactly one kill was delivered (budget 1), costing one rebuild.
        assert len(list(kill_dir.iterdir())) == 1
        assert after["pool_rebuilds"] - before["pool_rebuilds"] == 1
        assert envelope["n_cases"] == 4
        assert "errors" not in envelope

        # The kill budget is spent, so the scheme is inert now and the
        # serial reference is safe to run in-process.
        serial = tmp_path / "serial.json"
        run_sweep(spec, jobs=1, out_path=str(serial))
    assert parallel.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_case_becomes_an_error_record(tmp_path, jobs, fresh_pool):
    """S2: a case that raises is retried once, then recorded under the
    envelope's ``errors`` key — and never as an artifact row."""
    _needs_fork(jobs)
    with chaos_schemes():
        spec = small_spec(matrix=MatrixSpec(
            apps=("bcp",), schemes=("base", CHAOS_ERROR), seeds=(3,)))
        before = _stats()
        out = tmp_path / f"out-{jobs}.json"
        envelope = run_sweep(spec, jobs=jobs, out_path=str(out))
        after = _stats()

    assert after["case_retries"] - before["case_retries"] == 1
    assert after["case_errors"] - before["case_errors"] == 1
    assert envelope["n_cases"] == 1
    assert [row["scheme"] for row in envelope["cases"]] == ["base"]
    (record,) = envelope["errors"]
    assert record["scheme"] == CHAOS_ERROR and record["attempts"] == 2
    assert record["error"]["type"] == "RuntimeError"
    assert "chaos-error" in record["error"]["message"]
    assert "traceback" in record["error"]
    # The error sidecar stays out of the on-disk artifact.
    artifact = json.loads(out.read_text())
    assert "errors" not in artifact and len(artifact["cases"]) == 1


def test_corrupt_cache_entry_warns_once_and_reruns_the_case(
        tmp_path, caplog):
    """S3: a truncated/garbage resume-cache file is a warned cache miss,
    not a crash — the case silently re-simulates."""
    spec = small_spec(matrix=MatrixSpec(
        apps=("bcp",), schemes=("base",), seeds=(3, 4)))
    cache_dir = tmp_path / "cache"
    reference = run_sweep(spec, jobs=1, resume_dir=str(cache_dir))

    cache = CaseCache(str(cache_dir))
    app = next(iter(spec.matrix.cases()))[0]
    path = cache.path(spec_digest(spec), app.key, "base", 3)
    assert os.path.exists(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"row": {"truncated...')

    before = _stats()
    with caplog.at_level(logging.WARNING, logger="repro"):
        resumed = run_sweep(spec, jobs=1, resume_dir=str(cache_dir))
    after = _stats()

    warnings = [r for r in caplog.records
                if "corrupt entry" in r.getMessage()]
    assert len(warnings) == 1
    assert path in warnings[0].getMessage()
    # One case re-simulated, one still served from cache.
    assert after["cache_misses"] - before["cache_misses"] == 1
    assert after["cache_hits"] - before["cache_hits"] == 1
    assert resumed["cases"] == reference["cases"]
