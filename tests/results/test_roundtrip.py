"""End-to-end contract tests: real sweep artifacts through the API.

The acceptance bar of the results redesign: every artifact a sweep
writes loads into a typed :class:`ResultSet` and serializes back to the
*identical bytes*.
"""

import pytest

from repro.results import ResultSet, dumps_artifact, io, write_artifact
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
    """One real sweep, written to disk."""
    path = tmp_path_factory.mktemp("artifacts") / "sweep.json"
    result = run_sweep(spec, jobs=1, out_path=str(path))
    return {"result": result, "path": path}


def test_from_sweep_to_json_matches_canonical_bytes(sweep):
    rs = ResultSet.from_sweep(sweep["result"])
    assert rs.to_json() == dumps_artifact(sweep["result"])


def test_load_round_trips_artifact_files_byte_exactly(sweep):
    path = sweep["path"]
    rs = ResultSet.load(str(path))
    assert rs.to_json() + "\n" == path.read_text()


def test_save_reproduces_the_streamed_artifact(sweep, tmp_path):
    """Re-writing a loaded set through the one writer reproduces the
    sweep's own artifact file byte for byte."""
    rs = ResultSet.load(str(sweep["path"]))
    out = tmp_path / "resaved.json"
    write_artifact(str(out), rs.to_dict())
    assert out.read_bytes() == sweep["path"].read_bytes()


def test_write_artifact_is_atomic(tmp_path, monkeypatch):
    """A write that fails (an unserializable value, or a failed promote)
    leaves the file already at the path untouched and no ``.tmp``
    behind."""
    path = tmp_path / "sweep.json"
    path.write_text("previous\n")
    with pytest.raises(TypeError):
        write_artifact(str(path), {"cases": [object()]})

    def refuse(_src, _dst):
        raise OSError("promote refused")

    with monkeypatch.context() as patch:
        patch.setattr(io.os, "replace", refuse)
        with pytest.raises(OSError, match="promote refused"):
            write_artifact(str(path), {"cases": []})
    assert path.read_text() == "previous\n"
    assert not (tmp_path / "sweep.json.tmp").exists()
    write_artifact(str(path), {"b": 1, "a": [2]})
    assert path.read_text() == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'


def test_typed_cases_match_the_raw_rows(sweep):
    rs = ResultSet.from_sweep(sweep["result"])
    for case, raw in zip(rs, sweep["result"]["cases"]):
        assert case.to_dict() == raw
        assert case.scenario == "results-t"
    assert rs.schemes == ["base", "ms-8"]


def test_query_surface_over_a_real_artifact(sweep):
    rs = ResultSet.load(str(sweep["path"]))
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
