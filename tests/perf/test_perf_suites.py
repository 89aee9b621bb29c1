"""Perf suites and artifacts: registry shape, quick runs, round-trips."""

import json
import os

from repro.perf.artifacts import (
    artifact_name,
    load_artifacts,
    machine_meta,
    make_artifact,
    write_artifact,
)
from repro.perf.suites import SUITES, run_suite, suite_names


def test_expected_suites_registered():
    names = suite_names()
    for expected in ("sim_kernel", "monitor", "wifi_broadcast", "checkpoint",
                     "scenarios", "sweep_throughput", "fleet"):
        assert expected in names


def test_every_suite_has_cases():
    for suite, cases in SUITES.items():
        assert cases, f"suite {suite} is empty"
        names = [name for name, _factory in cases]
        assert len(names) == len(set(names)), f"duplicate case in {suite}"


def test_run_microbench_suites_quick():
    for suite in ("sim_kernel", "monitor", "wifi_broadcast", "checkpoint"):
        results = run_suite(suite, quick=True)
        assert results
        for case, metrics in results.items():
            assert metrics["wall_s"] > 0, f"{suite}/{case} measured no time"
            if "events" in metrics:
                assert metrics["events"] > 0


def test_sweep_throughput_suite_covers_the_executor_features():
    names = [name for name, _factory in SUITES["sweep_throughput"]]
    for expected in ("fig8-mini/serial", "fig8-mini/warm-pool",
                     "fig8-mini/resume-hit", "stream-writer/rows"):
        assert expected in names


def test_run_sweep_throughput_quick():
    results = run_suite("sweep_throughput", quick=True)
    for case, metrics in results.items():
        assert metrics["wall_s"] >= 0, f"{case} measured negative time"
    assert results["stream-writer/rows"]["rows_per_s"] > 0
    # A fully-cached resume must be far cheaper than simulating.
    assert (results["fig8-mini/resume-hit"]["wall_s"]
            < results["fig8-mini/serial"]["wall_s"])


def test_checkpoint_suite_gauges_peak_memory():
    results = run_suite("checkpoint", quick=True)
    mem = results["edgeml_snapshot_memory"]
    assert mem["peak_kb"] > 0
    assert mem["versions"] > 0


def test_cow_snapshots_cut_checkpoint_peak_memory_at_least_2x():
    """The acceptance bar, measured live: the full-size checkpoint rounds
    must peak at <= 1/2 the committed eager-copy (pre-PR) number."""
    factory = dict(SUITES["checkpoint"])["edgeml_snapshot_memory"]
    cow_peak = factory(False)()["peak_kb"]
    path = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks",
                        "baselines", "pre_pr", "BENCH_checkpoint.json")
    with open(path) as fh:
        eager = json.load(fh)["results"]["edgeml_snapshot_memory"]["peak_kb"]
    assert cow_peak <= eager / 2


def test_committed_pre_pr_baseline_records_the_memory_drop():
    """The committed artifacts must show the >= 2x drop the PR claims."""
    root = os.path.join(os.path.dirname(__file__), "..", "..",
                        "benchmarks", "baselines")
    with open(os.path.join(root, "BENCH_checkpoint.json")) as fh:
        cow = json.load(fh)["results"]["edgeml_snapshot_memory"]["peak_kb"]
    with open(os.path.join(root, "pre_pr", "BENCH_checkpoint.json")) as fh:
        eager = json.load(fh)["results"]["edgeml_snapshot_memory"]["peak_kb"]
    assert eager >= 2 * cow


def test_unknown_suite_raises():
    import pytest

    with pytest.raises(KeyError):
        run_suite("definitely-not-a-suite")


def test_machine_meta_fields():
    meta = machine_meta()
    for key in ("python", "platform", "machine", "cpu_count", "numpy"):
        assert key in meta


def test_artifact_round_trip(tmp_path):
    art = make_artifact("sim_kernel", {"case": {"wall_s": 0.5}}, quick=True)
    path = write_artifact(str(tmp_path), art)
    assert os.path.basename(path) == artifact_name("sim_kernel")
    loaded = load_artifacts(str(tmp_path))
    assert loaded["sim_kernel"]["results"] == {"case": {"wall_s": 0.5}}
    assert loaded["sim_kernel"]["quick"] is True
    # Canonical JSON: stable key order, trailing newline.
    raw = open(path).read()
    assert raw.endswith("\n")
    assert json.loads(raw) == art


def test_load_ignores_non_bench_files(tmp_path):
    (tmp_path / "BENCH_x.json").write_text(
        json.dumps(make_artifact("x", {}, quick=False)))
    (tmp_path / "notes.json").write_text("{}")
    (tmp_path / "BENCH_y.txt").write_text("nope")
    assert list(load_artifacts(str(tmp_path))) == ["x"]


def test_load_missing_dir_is_empty(tmp_path):
    assert load_artifacts(str(tmp_path / "nope")) == {}


def test_perf_run_cli_writes_artifacts(tmp_path, capsys):
    from repro.perf.cli import cmd_perf_compare, cmd_perf_run

    out = str(tmp_path / "results")
    assert cmd_perf_run(out_dir=out, suites=["monitor"], quick=True) == 0
    arts = load_artifacts(out)
    assert "monitor" in arts and arts["monitor"]["quick"] is True
    # Self-comparison is clean.
    assert cmd_perf_compare(baseline_dir=out, current_dir=out) == 0
    # Inject a 10x regression into a copy -> exit code 1.
    slow_dir = str(tmp_path / "slow")
    os.makedirs(slow_dir)
    art = json.load(open(os.path.join(out, artifact_name("monitor"))))
    for case in art["results"].values():
        case["wall_s"] *= 10
    with open(os.path.join(slow_dir, artifact_name("monitor")), "w") as fh:
        json.dump(art, fh)
    assert cmd_perf_compare(baseline_dir=out, current_dir=slow_dir) == 1
    assert cmd_perf_run(out_dir=out, suites=["no-such-suite"]) == 2
