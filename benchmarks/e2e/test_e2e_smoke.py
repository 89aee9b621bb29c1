"""Smoke test of the e2e benchmark: time-compressed specs, one pass each.

Runs the same session code ``run.py`` starts in child processes, but in
this process (one real CLI subprocess aside), and asserts what does not
depend on how busy the host is: every workload and metric
``BENCHMARK.json`` names comes out with a finite value, layer shares sum
to one, counts repeat between two traced passes, no artifact moves under
the tracer or an observer, and the harness's artifact bytes are the ones
``tests/perf/golden_hashes.json`` pins.
"""

import fnmatch
import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402

#: Simulated seconds per case here: enough for a checkpoint wave and a
#: recovery in every scenario, a sixth of the wall time of ``spec.quick()``.
TINY = 60.0
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    return run.load_json("BENCHMARK.json")


@pytest.fixture(autouse=True)
def nominal_host(monkeypatch):
    """Nothing asserted here depends on how fast the host is, so the
    passes skip the ~50 ms speed kernel around each of them."""
    real = session.host_seconds
    monkeypatch.setattr(session, "host_seconds", lambda: session.HOST_NOMINAL_S)
    return real


def request_for(workload, workdir, **extra):
    return dict(workload=workload, seed=3, workdir=str(workdir),
                setup_samples=1, plain_passes=1,
                trace_file=os.path.join(str(workdir), f"trace-{workload}.json"),
                **extra)


def test_benchmark_json_meets_the_contract(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in bench["workloads"]] == list(session.WORKLOADS)
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in bench[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds.pop("setup_s") == 0.25 and max(bounds.values()) <= 0.15
    layers = {m["name"] for m in bench["per_layer"]}
    assert {f"{layer}.share" for layer in tracing.LAYERS + (tracing.OTHER,)} <= layers
    # Every per-layer metric is exercised, so reported, by some workload.
    patterns = {p for workload in session.WORKLOADS for p in session.EXERCISES[workload]}
    assert all(any(fnmatch.fnmatchcase(name, p) for p in patterns) for name in layers)


@pytest.mark.parametrize("workload", [w for w in session.WORKLOADS
                                      if w != "fig8-cold-cli"])
def test_traced_session_reports_every_layer(workload, bench, tmp_path):
    ses = session.Session(workload, 3, TINY, str(tmp_path))
    doc = session.traced_session(ses, request_for(workload, tmp_path))

    verdict = run.judge(workload, [doc], reference=None)
    # Byte-identical artifacts under spans, profile and observers, and
    # identical counts in the two traced passes, are checks of the session.
    assert verdict["failed"] == 0, verdict["errors"]
    assert verdict["attempted"] > 0

    layer = doc["per_layer"]
    assert set(layer) <= {m["name"] for m in bench["per_layer"]}
    assert all(math.isfinite(value) for value in layer.values())
    if workload != "fleet-broadcast":  # no tuple reaches its sinks in 60 s
        # Raises if a metric the workload exercises is missing or reads 0.
        reported = run.exercised(workload, layer, bench["per_layer"])
        assert "sim.events" in reported and "cli.import_s" not in reported
    shares = [layer[f"{name}.share"] for name in tracing.LAYERS + (tracing.OTHER,)]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert layer["sim.events"] > 0 and layer["checkpoint.completed"] > 0
    if workload == "recovery-mix":
        assert layer["checkpoint.recoveries"] > 0
        assert layer["device.failures_injected"] > 0
        assert layer["verify.violations"] == 0 and layer["verify.overhead_ratio"] > 0
    if workload == "fig8-warm-serial":
        assert layer["apps.render_hit_ratio"] == 1.0  # warm: payload cache bypassed
        assert layer["telemetry.overhead_ratio"] > 0
    if workload == "fleet-broadcast":
        assert layer["net.broadcast_round_calls"] > 0
    if workload == "sweep-harness":
        assert "sim.share" not in reported  # the simulator runs in the workers
        assert layer["scenarios.cache_misses"] == 8
        assert layer["scenarios.cache_hits"] == 8 * session.RESUMES_PER_PASS
        assert layer["scenarios.pool_creates"] == 0  # the pool stayed warm
        assert layer["results.load_ms"] > 0

    summary = run.summarize(run.end_to_end([doc]), bench["end_to_end"])
    assert list(summary) == [m["name"] for m in bench["end_to_end"]]
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in summary.values())

    with open(os.path.join(str(tmp_path), f"trace-{workload}.json")) as fh:
        spans = json.load(fh)["spans"]
    by_id = {span["id"]: span for span in spans}
    assert spans and all(span["end"] >= span["start"] for span in spans)
    assert all(span["parent"] is None or by_id[span["parent"]]["start"] <= span["start"]
               for span in spans)


def test_cold_cli_pass_and_in_process_trace(bench, tmp_path):
    args = request_for("fig8-cold-cli", tmp_path, seconds=0, min_passes=1)
    ses = session.Session("fig8-cold-cli", 3, TINY, str(tmp_path))
    doc = session.timed_session(ses, args)  # one `scenario list`, one sweep
    assert run.judge("fig8-cold-cli", [doc], reference=None)["failed"] == 0
    summary = run.summarize(run.end_to_end([doc]), bench["end_to_end"])
    assert all(m["value"] > 0 for m in summary.values())

    record = session.inproc_cli(dict(args, mode="inproc-span", n_cases=14))
    (cli_artifact,) = doc["passes"][0]["artifacts"].values()
    assert record["result"]["artifacts"]["paper-fig8"] == cli_artifact
    assert record["counts"]["sim.events"] > 0 and record["warm_wall_s"] > 0
    assert {span["name"] for span in record["child_spans"]} >= {
        "run_sweep", "run_case", "build_system", "system.run", "system.metrics"}


def test_host_speed_kernel_leaves_the_process_where_it_was(nominal_host):
    allowed = os.sched_getaffinity(0)
    assert 0 < nominal_host() < 1.0  # the real kernel: ~0.03 s per CPU
    assert os.sched_getaffinity(0) == allowed


def test_harness_artifacts_are_the_golden_bytes():
    from repro import scenarios

    with open(os.path.join(ROOT, "tests", "perf", "golden_hashes.json")) as fh:
        golden = json.load(fh)
    specs = [scenarios.get(name).quick() for name in sorted(golden)]
    result = session.sim_pass(specs)
    assert result.failed == 0
    assert {name: art["sha256"] for name, art in result.artifacts.items()} == golden
