"""End-to-end contract tests: real sweep artifacts through the API.

The acceptance bar of the results redesign: every artifact a sweep
writes — buffered, streamed, pretty, or compact — loads into a typed
:class:`ResultSet` and serializes back to the *identical bytes*.
"""

import pytest

from repro.results import ResultSet, dumps_artifact
from repro.scenarios.executor import run_sweep
from repro.scenarios.spec import MatrixSpec, ScenarioSpec


@pytest.fixture(scope="module")
def spec():
    return ScenarioSpec(
        name="results-t", duration_s=200.0, warmup_s=40.0, idle_per_region=4,
        checkpoint_period_s=60.0,
        matrix=MatrixSpec(apps=("bcp",), schemes=("base", "ms-8"), seeds=(3,)),
    )


@pytest.fixture(scope="module")
def sweep(spec, tmp_path_factory):
    """One real sweep, written to disk in both layouts."""
    root = tmp_path_factory.mktemp("artifacts")
    pretty = root / "pretty.json"
    compact = root / "compact.json"
    result = run_sweep(spec, jobs=1, out_path=str(pretty))
    run_sweep(spec, jobs=1, out_path=str(compact), compact=True)
    return {"result": result, "pretty": pretty, "compact": compact}


def test_from_sweep_to_json_matches_canonical_bytes(sweep):
    rs = ResultSet.from_sweep(sweep["result"])
    assert rs.to_json() == dumps_artifact(sweep["result"])
    assert rs.to_json(compact=True) == dumps_artifact(
        sweep["result"], compact=True)


@pytest.mark.parametrize("layout", ["pretty", "compact"])
def test_load_round_trips_artifact_files_byte_exactly(sweep, layout):
    path = sweep[layout]
    rs = ResultSet.load(str(path))
    compact = layout == "compact"
    assert rs.to_json(compact=compact) + "\n" == path.read_text()


def test_save_reproduces_the_streamed_artifact(sweep, tmp_path):
    rs = ResultSet.load(str(sweep["pretty"]))
    out = tmp_path / "resaved.json"
    rs.save(str(out))
    assert out.read_bytes() == sweep["pretty"].read_bytes()


def test_typed_cases_match_the_raw_rows(sweep):
    rs = ResultSet.from_sweep(sweep["result"])
    for case, raw in zip(rs, sweep["result"]["cases"]):
        assert case.to_dict() == raw
        assert case.scenario == "results-t"
    assert rs.schemes == ["base", "ms-8"]


def test_query_surface_over_a_real_artifact(sweep):
    rs = ResultSet.load(str(sweep["pretty"]))
    rel = rs.relative_to("base", metrics=("throughput", "latency"))
    assert rel["base"]["throughput"] == pytest.approx(1.0)
    assert rel["ms-8"]["throughput"] > 0
    pv = rs.pivot(rows="scheme", cols="app", metric="throughput")
    assert pv.cell("ms-8", "bcp") == rs.filter(
        scheme="ms-8").aggregate("throughput").value


def test_resume_cache_rows_load_as_single_cases(spec, tmp_path):
    run_sweep(spec, jobs=1, resume_dir=str(tmp_path))
    row_files = sorted(tmp_path.rglob("*.json"))
    assert row_files
    for path in row_files:
        rs = ResultSet.load(str(path))
        assert len(rs) == 1
        assert rs[0].scenario == "results-t"
