"""Warm-pool executor tests: resume cache, streaming writer, determinism."""

import os

import pytest

from repro.results import dumps_artifact
from repro.scenarios import executor
from repro.scenarios.executor import (
    CaseCache,
    StreamingSweepWriter,
    run_sweep,
    spec_digest,
)
from repro.scenarios.spec import MatrixSpec, ScenarioSpec


def small_spec(**kwargs):
    defaults = dict(
        name="exec-t", duration_s=200.0, warmup_s=40.0, idle_per_region=4,
        checkpoint_period_s=60.0,
        matrix=MatrixSpec(apps=("bcp",), schemes=("base", "ms-8"), seeds=(3, 4)),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


# -- spec digest --------------------------------------------------------------
def test_spec_digest_is_stable_and_content_sensitive():
    a, b = small_spec(), small_spec()
    assert spec_digest(a) == spec_digest(b)
    assert spec_digest(a) != spec_digest(small_spec(duration_s=201.0))


def test_spec_digest_tracks_the_code_version(monkeypatch):
    """A persistent resume cache must invalidate when the simulator
    code changes: the digest folds in the checkout's git HEAD."""
    spec = small_spec()
    monkeypatch.setattr(executor, "_code_token_cache", "commit-a")
    digest_a = spec_digest(spec)
    monkeypatch.setattr(executor, "_code_token_cache", "commit-b")
    assert spec_digest(spec) != digest_a


# -- streaming writer ---------------------------------------------------------
@pytest.mark.parametrize("compact", [True, False])
@pytest.mark.parametrize("n_rows", [0, 1, 3])
def test_streaming_writer_matches_dumps_artifact(tmp_path, compact, n_rows):
    """The streamed artifact must be byte-identical to the buffered
    canonical serialization, for both layouts, including zero rows."""
    spec = small_spec()
    rows = [
        {"scenario": "exec-t", "app": "bcp", "scheme": "base", "seed": i,
         "metrics": {"latency": 0.5 + i, "none": None}}
        for i in range(n_rows)
    ]
    result = {"scenario": spec.name, "spec": spec.to_dict(),
              "n_cases": n_rows, "cases": rows}
    path = tmp_path / "out.json"
    writer = StreamingSweepWriter(str(path), compact=compact)
    for row in rows:
        writer.write_row(row)
    writer.finish(spec.name, spec.to_dict(), n_rows)
    assert path.read_text() == dumps_artifact(result, compact=compact) + "\n"


def test_aborted_stream_preserves_existing_artifact(tmp_path):
    """A failed sweep must never destroy a previously complete artifact:
    rows stream into a sidecar that is only promoted on finish."""
    path = tmp_path / "sweep.json"
    path.write_text('{"previous": "complete artifact"}\n')
    writer = StreamingSweepWriter(str(path), compact=True)
    writer.write_row({"a": 1})
    writer.abort()
    assert path.read_text() == '{"previous": "complete artifact"}\n'
    assert not os.path.exists(str(path) + ".tmp")


def test_distinct_case_keys_never_share_a_cache_file(tmp_path):
    """Sanitization maps unsafe characters to '_'; the content-hash tag
    keeps sanitize-alike keys (e.g. string params 'a/b' vs 'a:b') from
    colliding on one file."""
    cache = CaseCache(str(tmp_path))
    assert (cache.path("d", 'app[s="a/b"]', "ms-8", 3)
            != cache.path("d", 'app[s="a:b"]', "ms-8", 3))
    assert cache.path("d", "bcp", "ms-8", 3) == cache.path("d", "bcp", "ms-8", 3)


def test_sweep_artifact_streams_byte_identical(tmp_path):
    spec = small_spec(matrix=MatrixSpec(apps=("bcp",), schemes=("base",), seeds=(3,)))
    out = tmp_path / "sweep.json"
    result = run_sweep(spec, jobs=1, out_path=str(out))
    assert out.read_text() == dumps_artifact(result) + "\n"


# -- resume cache -------------------------------------------------------------
def test_case_cache_round_trip_and_corruption(tmp_path):
    cache = CaseCache(str(tmp_path))
    row = {"seed": 3, "throughput": 1.25}
    cache.put("abcd", "edgeml[n_stages=2]", "ms-8", 3, row)
    assert cache.get("abcd", "edgeml[n_stages=2]", "ms-8", 3) == row
    # Unknown key and torn/corrupt files read as misses, never raise.
    assert cache.get("abcd", "bcp", "ms-8", 3) is None
    path = cache.path("abcd", "edgeml[n_stages=2]", "ms-8", 3)
    with open(path, "w") as fh:
        fh.write('{"torn":')
    assert cache.get("abcd", "edgeml[n_stages=2]", "ms-8", 3) is None


def test_partial_sweep_then_resume_is_byte_identical(tmp_path):
    """Kill-half-way recovery: a --max-cases partial run populates the
    cache; the re-run only simulates the missing cases and produces the
    same bytes as an uninterrupted sweep."""
    spec = small_spec()
    fresh = dumps_artifact(run_sweep(spec, jobs=1))

    cache_dir = str(tmp_path / "cache")
    partial = run_sweep(spec, jobs=1, max_cases=2, resume_dir=cache_dir)
    assert partial["n_cases"] == 2

    runs_before = executor.stats["cases_run"]
    hits_before = executor.stats["cache_hits"]
    resumed = dumps_artifact(run_sweep(spec, jobs=1, resume_dir=cache_dir))
    assert resumed == fresh
    assert executor.stats["cache_hits"] - hits_before == 2
    assert executor.stats["cases_run"] - runs_before == 2  # only the missing half


def test_resume_cache_is_spec_keyed(tmp_path):
    """A cached row never leaks into a sweep of a *different* spec."""
    cache_dir = str(tmp_path / "cache")
    run_sweep(small_spec(), jobs=1, max_cases=1, resume_dir=cache_dir)
    hits_before = executor.stats["cache_hits"]
    run_sweep(small_spec(duration_s=201.0), jobs=1, max_cases=1,
              resume_dir=cache_dir)
    assert executor.stats["cache_hits"] == hits_before


def test_fully_cached_resume_runs_no_cases(tmp_path):
    spec = small_spec(matrix=MatrixSpec(apps=("bcp",), schemes=("base",), seeds=(3,)))
    cache_dir = str(tmp_path / "cache")
    first = run_sweep(spec, jobs=1, resume_dir=cache_dir)
    runs_before = executor.stats["cases_run"]
    second = run_sweep(spec, jobs=1, resume_dir=cache_dir)
    assert executor.stats["cases_run"] == runs_before
    assert dumps_artifact(first) == dumps_artifact(second)


def test_max_cases_validation():
    with pytest.raises(ValueError):
        run_sweep(small_spec(), max_cases=0)


# -- determinism across execution modes ---------------------------------------
def test_serial_parallel_resumed_sweeps_are_byte_identical(tmp_path):
    """The executor's acceptance bar: serial, warm-pool parallel, and
    partially-resumed parallel runs all serialize identically."""
    spec = small_spec()
    serial = dumps_artifact(run_sweep(spec, jobs=1))
    parallel = dumps_artifact(run_sweep(spec, jobs=2))
    assert parallel == serial

    cache_dir = str(tmp_path / "cache")
    run_sweep(spec, jobs=2, max_cases=3, resume_dir=cache_dir)
    resumed = dumps_artifact(run_sweep(spec, jobs=2, resume_dir=cache_dir))
    assert resumed == serial


def test_fourteen_case_parallel_sweep_matches_serial():
    """The paper-fig8 shape (2 apps x 7 schemes) at ``jobs=2``: 14 cases
    over 2 x 4 is the first size a chunking heuristic rounds up to 2,
    where ``imap`` returned a generator the watchdog could not poll."""
    spec = small_spec(
        duration_s=90.0, warmup_s=30.0, checkpoint_period_s=30.0,
        matrix=MatrixSpec(
            apps=("bcp", "signalguru"),
            schemes=("base", "rep-2", "local", "dist-1", "dist-2", "dist-3", "ms-8"),
            seeds=(3,)))
    assert len(list(spec.matrix.cases())) == 14
    assert dumps_artifact(run_sweep(spec, jobs=2)) == dumps_artifact(
        run_sweep(spec, jobs=1))


# -- warm pool ----------------------------------------------------------------
def test_warm_pool_is_reused_for_same_spec_and_torn_down_on_change():
    spec = small_spec()
    run_sweep(spec, jobs=2)
    creates_before = executor.stats["pool_creates"]
    reuses_before = executor.stats["pool_reuses"]
    run_sweep(spec, jobs=2)
    assert executor.stats["pool_creates"] == creates_before
    assert executor.stats["pool_reuses"] == reuses_before + 1
    # A mostly-cached resume needing fewer workers still reuses it.
    reuses_mid = executor.stats["pool_reuses"]
    executor._warm_pool(1, spec, executor.spec_digest(spec))
    assert executor.stats["pool_reuses"] == reuses_mid + 1
    assert executor.stats["pool_creates"] == creates_before
    # A different spec re-primes the workers (spec ships once per pool).
    run_sweep(small_spec(duration_s=201.0), jobs=2)
    assert executor.stats["pool_creates"] == creates_before + 1


def test_start_method_avoids_fork_off_linux(monkeypatch):
    """macOS lists fork as available but forking after numpy spawns
    ObjC/Accelerate threads can abort workers — never pick it there."""
    monkeypatch.delenv("REPRO_MP_START", raising=False)
    monkeypatch.setattr(executor.sys, "platform", "darwin")
    assert executor._start_method() != "fork"
    monkeypatch.setattr(executor.sys, "platform", "linux")
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        assert executor._start_method() == "fork"


def test_code_token_tracks_source_edits(tmp_path):
    """The staleness token is a stat-hash of the package sources: any
    edit (size or mtime change), new file, or rename moves it — commits
    and uncommitted changes alike."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    mod = pkg / "mod.py"
    mod.write_text("x = 1\n")
    t0 = executor._code_token(str(pkg))
    assert executor._code_token(str(pkg)) == t0  # stable while untouched
    mod.write_text("x = 22\n")  # content (size) change
    t1 = executor._code_token(str(pkg))
    assert t1 != t0
    (pkg / "new.py").write_text("y = 3\n")  # new module
    assert executor._code_token(str(pkg)) != t1
    (pkg / "notes.txt").write_text("ignored")  # non-source files don't count
    assert executor._code_token(str(pkg)) == executor._code_token(str(pkg))


def test_failed_parallel_sweep_invalidates_the_pool(monkeypatch):
    """An exception escaping a parallel sweep must tear the pool down —
    a reused pool with abandoned imap chunks hangs the next sweep."""
    spec = small_spec()

    class ExplodingPool:
        def imap(self, fn, payloads):
            raise RuntimeError("worker died")

    shutdowns = []
    monkeypatch.setattr(executor, "_warm_pool", lambda *a: ExplodingPool())
    monkeypatch.setattr(executor, "shutdown_pool", lambda: shutdowns.append(1))
    with pytest.raises(RuntimeError, match="worker died"):
        run_sweep(spec, jobs=2)
    assert shutdowns


def test_shutdown_pool_is_idempotent():
    executor.shutdown_pool()
    executor.shutdown_pool()
    # And sweeps still work after a shutdown (pool rebuilds on demand).
    result = run_sweep(
        small_spec(matrix=MatrixSpec(apps=("bcp",), schemes=("base",), seeds=(3, 4))),
        jobs=2,
    )
    assert result["n_cases"] == 2
