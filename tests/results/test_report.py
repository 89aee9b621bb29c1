"""The report renderer and the ``repro report`` CLI."""

import json

import pytest

from repro.cli import main
from repro.results import ResultSet, build_report, write_artifact
from tests.results._cases import make_case


@pytest.fixture()
def rs():
    return ResultSet.from_cases([
        make_case(scheme="base", seed=3, tput=10.0, lat=2.0, preserved=0.0),
        make_case(scheme="base", seed=4, tput=14.0, lat=4.0, preserved=0.0),
        make_case(scheme="ms-8", seed=3, tput=8.0, lat=3.0, preserved=100.0),
        make_case(scheme="ms-8", seed=4, tput=6.0, lat=5.0, preserved=300.0),
    ], scenario="synth")


@pytest.fixture()
def artifact(tmp_path, rs):
    path = tmp_path / "sweep.json"
    write_artifact(str(path), rs.to_dict())
    return str(path)


# -- build_report -------------------------------------------------------------
def test_table_report_groups_and_normalizes(rs):
    text = build_report(rs, group_by=["scheme"], relative_to="base",
                        metrics=["throughput", "latency"])
    assert "relative to 'base'" in text
    lines = text.splitlines()
    assert any("base" in l and "(1.00x)" in l for l in lines)
    # ms-8 mean tput 7 vs base 12 -> 0.58x.
    assert any("ms-8" in l and "(0.58x)" in l for l in lines)


def test_default_group_by_picks_the_varying_axis(rs):
    text = build_report(rs, metrics=["throughput"])
    assert "by scheme" in text
    seeds_only = rs.filter(scheme="ms-8")
    assert "by seed" in build_report(seeds_only, metrics=["throughput"])


def test_md_report_is_a_pipe_table(rs):
    text = build_report(rs, metrics=["throughput"], fmt="md")
    assert text.splitlines()[-1].startswith("| ")
    assert "| --- |" in text


def test_json_report_is_schema_versioned(rs):
    doc = json.loads(build_report(
        rs, group_by=["scheme"], relative_to="base",
        metrics=["throughput"], ci=True, fmt="json"))
    assert doc["schema_version"] == 1
    assert doc["n_cases"] == 4
    base, ms = doc["groups"]
    assert base["key"] == "base" and base["n"] == 2
    assert base["metrics"]["throughput"]["relative"] == pytest.approx(1.0)
    assert ms["metrics"]["throughput"]["value"] == pytest.approx(7.0)
    assert "ci_half" in ms["metrics"]["throughput"]


def test_report_rejects_bad_inputs(rs):
    with pytest.raises(ValueError, match="unknown format"):
        build_report(rs, fmt="yaml")
    with pytest.raises(ValueError, match="empty"):
        build_report(rs.filter(scheme="nope"))
    with pytest.raises(ValueError, match="single group-by axis"):
        build_report(rs, group_by=["scheme", "seed"], relative_to="base")


def test_report_multi_axis_grouping(rs):
    text = build_report(rs, group_by=["scheme", "seed"],
                        metrics=["throughput"])
    assert "scheme/seed" in text
    assert any("base/3" in l for l in text.splitlines())


# -- CLI ----------------------------------------------------------------------
def test_cli_report_table(capsys, artifact):
    rc = main(["report", artifact, "--group-by", "scheme",
               "--relative-to", "base"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ms-8" in out and "(1.00x)" in out


def test_cli_report_json_and_metrics(capsys, artifact):
    rc = main(["report", artifact, "--format", "json",
               "--metrics", "throughput,preserved_bytes", "--ci"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert set(doc["groups"][0]["metrics"]) == {"throughput",
                                                "preserved_bytes"}


def test_cli_report_filter(capsys, artifact):
    rc = main(["report", artifact, "--filter", "scheme=ms-8",
               "--group-by", "seed", "--metrics", "throughput"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "base" not in out


def test_cli_report_unknown_baseline_is_a_clean_error(capsys, artifact):
    rc = main(["report", artifact, "--group-by", "scheme",
               "--relative-to", "nope"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "'base', 'ms-8'" in err


def test_cli_report_missing_file_is_a_clean_error(capsys, tmp_path):
    rc = main(["report", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "cannot read" in err


def test_cli_report_bad_filter_is_a_clean_error(capsys, artifact):
    rc = main(["report", artifact, "--filter", "scheme"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "AXIS=VALUE" in err


def test_cli_report_rejects_non_artifact_json(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"nope": 1}')
    rc = main(["report", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not a sweep artifact" in err


def test_cli_report_relative_to_a_seed_group(capsys, artifact):
    """Seed group keys are ints; the CLI's string baseline must still
    resolve (regression: --group-by seed --relative-to 3 errored)."""
    rc = main(["report", artifact, "--group-by", "seed",
               "--relative-to", "3", "--metrics", "throughput"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "(1.00x)" in out


def test_cli_report_unknown_seed_baseline_is_a_clean_error(capsys, artifact):
    rc = main(["report", artifact, "--group-by", "seed",
               "--relative-to", "nope"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown seed group" in err


def test_cli_report_non_dict_rows_are_a_clean_error(capsys, tmp_path):
    """Regression: a junk row used to escape as a TypeError traceback."""
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    rc = main(["report", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "must be a mapping" in err
