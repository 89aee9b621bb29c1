"""ResultSet queries: filter, group, aggregate, normalize, export."""

import json
import math

import pytest

from repro.results import ResultSet, dumps_artifact, write_artifact
from repro.util.stats import mean_ci
from tests.results._cases import make_case


@pytest.fixture()
def rs():
    return ResultSet.from_cases([
        make_case(scheme="base", seed=3, tput=10.0, lat=2.0, preserved=0.0),
        make_case(scheme="base", seed=4, tput=14.0, lat=4.0, preserved=0.0),
        make_case(scheme="ms-8", seed=3, tput=8.0, lat=3.0, preserved=100.0),
        make_case(scheme="ms-8", seed=4, tput=6.0, lat=5.0, preserved=300.0),
        make_case(app="signalguru", scheme="ms-8", seed=3, tput=20.0,
                  lat=1.0, preserved=50.0),
    ], scenario="synth")


# -- filter -------------------------------------------------------------------
def test_filter_by_scalar_and_collection(rs):
    assert len(rs.filter(scheme="base")) == 2
    assert len(rs.filter(scheme="ms-8", app="bcp")) == 2
    assert len(rs.filter(seed=(3, 4))) == 5
    assert len(rs.filter(seed=[4])) == 2


def test_filter_by_predicate(rs):
    heavy = rs.filter(lambda c: c.preserved_bytes > 75.0)
    assert len(heavy) == 2
    assert all(c.scheme == "ms-8" for c in heavy)


def test_filter_unknown_axis_lists_axes(rs):
    with pytest.raises(ValueError, match="scenario, app, scheme, seed"):
        rs.filter(color="red")


def test_filter_keeps_provenance(rs):
    assert rs.filter(scheme="base").scenario == "synth"


# -- axis views / group_by ----------------------------------------------------
def test_axis_views_keep_first_seen_order(rs):
    assert rs.schemes == ["base", "ms-8"]
    assert rs.apps == ["bcp", "signalguru"]
    assert rs.seeds == [3, 4]


def test_group_by_single_axis(rs):
    groups = rs.group_by("scheme")
    assert groups.keys() == ["base", "ms-8"]
    assert len(groups["base"]) == 2
    assert len(groups["ms-8"]) == 3


def test_group_by_multiple_axes_keys_by_tuple(rs):
    groups = rs.group_by("app", "scheme")
    assert ("bcp", "base") in groups
    assert len(groups[("signalguru", "ms-8")]) == 1


def test_group_lookup_error_lists_known_groups(rs):
    with pytest.raises(ValueError, match="'base', 'ms-8'"):
        rs.group_by("scheme")["nope"]


def test_group_by_without_axes_is_an_error(rs):
    with pytest.raises(ValueError, match="at least one axis"):
        rs.group_by()


# -- aggregate ----------------------------------------------------------------
def test_aggregate_mean_min_max(rs):
    base = rs.filter(scheme="base")
    assert base.aggregate("throughput").value == pytest.approx(12.0)
    assert base.aggregate("throughput", "min").value == 10.0
    assert base.aggregate("throughput", "max").value == 14.0
    assert base.aggregate("throughput", "sum").value == 24.0
    assert base.aggregate("throughput", "count").value == 2


def test_aggregate_p95_is_nearest_rank(rs):
    agg = rs.aggregate("throughput", "p95")
    # Sorted sample: 6, 8, 10, 14, 20 -> ceil(0.95*5)=5 -> index 4.
    assert agg.value == 20.0
    assert agg.n == 5


def test_aggregate_skips_null_metrics():
    rs2 = ResultSet.from_cases([
        make_case(seed=3, lat=2.0),
        make_case(seed=4, lat=None),
    ])
    agg = rs2.aggregate("latency")
    assert agg.value == 2.0
    assert agg.n == 1


def test_aggregate_empty_sample_is_nan():
    rs2 = ResultSet.from_cases([make_case(lat=None)])
    assert math.isnan(rs2.aggregate("latency").value)
    assert rs2.aggregate("latency", "count").value == 0


def test_aggregate_ci_matches_stats_helper(rs):
    base = rs.filter(scheme="base")
    agg = base.aggregate("throughput", ci=True)
    expected_half = mean_ci([10.0, 14.0])[1]
    assert agg.ci_half == pytest.approx(expected_half)
    assert float(agg) == agg.value


def test_aggregate_ci_requires_mean(rs):
    with pytest.raises(ValueError, match="stat='mean'"):
        rs.aggregate("throughput", "p95", ci=True)


def test_aggregate_unknown_stat_lists_stats(rs):
    with pytest.raises(ValueError, match="unknown stat"):
        rs.aggregate("throughput", "mode")


def test_grouped_aggregate(rs):
    per_scheme = rs.group_by("scheme").aggregate("throughput")
    assert per_scheme["base"].value == pytest.approx(12.0)
    assert per_scheme["ms-8"].n == 3


# -- relative_to --------------------------------------------------------------
def test_relative_to_normalizes_group_means(rs):
    rel = rs.filter(app="bcp").relative_to(
        "base", metrics=("throughput", "latency"))
    assert rel["base"]["throughput"] == pytest.approx(1.0)
    assert rel["base"]["latency"] == pytest.approx(1.0)
    # ms-8 mean tput 7 vs base mean 12; latency 4 vs 3.
    assert rel["ms-8"]["throughput"] == pytest.approx(7.0 / 12.0)
    assert rel["ms-8"]["latency"] == pytest.approx(4.0 / 3.0)


def test_relative_to_zero_baseline_yields_default(rs):
    rel = rs.filter(app="bcp").relative_to(
        "base", metrics=("preserved_bytes",), default=0.0)
    assert rel["ms-8"]["preserved_bytes"] == 0.0  # base preserved 0


def test_relative_to_floor_clamps_the_denominator(rs):
    rel = rs.filter(app="bcp").relative_to(
        "base", metrics=("preserved_bytes",), floor=1.0)
    # Denominator max(0, 1.0) = 1.0 -> ratios are the raw means.
    assert rel["ms-8"]["preserved_bytes"] == pytest.approx(200.0)


def test_relative_to_unknown_baseline_lists_groups(rs):
    with pytest.raises(ValueError, match="'base', 'ms-8'"):
        rs.relative_to("nope")


# -- pivot --------------------------------------------------------------------
def test_pivot_scheme_by_app(rs):
    pv = rs.pivot(rows="scheme", cols="app", metric="throughput")
    assert pv.row_keys == ("base", "ms-8")
    assert pv.col_keys == ("bcp", "signalguru")
    assert pv.cell("base", "bcp") == pytest.approx(12.0)
    assert pv.cell("ms-8", "signalguru") == 20.0
    assert math.isnan(pv.cell("base", "signalguru"))  # no such case
    text = pv.to_text()
    assert "scheme\\app" in text
    assert "-" in text  # the empty cell renders as a dash


# -- export -------------------------------------------------------------------
def test_to_rows_flattens_region_metrics(rs):
    rows = rs.to_rows()
    assert len(rows) == 5
    assert rows[0]["scheme"] == "base"
    assert rows[0]["region0.throughput_tps"] == 10.0
    assert rows[0]["stopped"] is False


# -- envelope / serialization -------------------------------------------------
def envelope(cases, **extra):
    d = {"cases": [c.to_dict() for c in cases], "n_cases": len(cases)}
    d.update(extra)
    return d


def test_from_sweep_round_trips_to_identical_bytes(rs):
    result = envelope(rs.cases, scenario="synth", spec={"name": "synth"})
    again = ResultSet.from_sweep(result)
    assert again.to_json() == dumps_artifact(result)


def test_from_sweep_rejects_torn_artifacts(rs):
    result = envelope(rs.cases)
    result["n_cases"] = 99
    with pytest.raises(ValueError, match="torn"):
        ResultSet.from_sweep(result)


def test_from_sweep_rejects_unknown_envelope_keys(rs):
    with pytest.raises(ValueError, match="unknown key"):
        ResultSet.from_sweep(envelope(rs.cases, extra=1))


def test_from_sweep_accepts_and_reemits_schema_version(rs):
    result = envelope(rs.cases, schema_version=1)
    again = ResultSet.from_sweep(result)
    assert again.schema_version == 1
    assert json.loads(again.to_json())["schema_version"] == 1


def test_from_sweep_rejects_future_schema_versions(rs):
    with pytest.raises(ValueError, match="schema version 2"):
        ResultSet.from_sweep(envelope(rs.cases, schema_version=2))


def test_load_accepts_sweep_case_list_and_single_case(tmp_path, rs):
    sweep = tmp_path / "sweep.json"
    write_artifact(str(sweep), rs.to_dict())
    assert len(ResultSet.load(str(sweep))) == 5

    row = tmp_path / "case.json"
    row.write_text(json.dumps(rs[0].to_dict()))
    single = ResultSet.load(str(row))
    assert len(single) == 1 and single[0] == rs[0]

    listing = tmp_path / "rows.json"
    listing.write_text(json.dumps([c.to_dict() for c in rs.cases[:2]]))
    assert len(ResultSet.load(str(listing))) == 2

    junk = tmp_path / "junk.json"
    junk.write_text('{"hello": 1}')
    with pytest.raises(ValueError, match="not a sweep artifact"):
        ResultSet.load(str(junk))


def test_save_load_is_byte_stable(tmp_path, rs):
    path = tmp_path / "a.json"
    write_artifact(str(path), rs.to_dict())
    again = ResultSet.load(str(path))
    assert again.to_json() + "\n" == path.read_text()
    assert again.cases == rs.cases


def test_from_sweep_rejects_non_list_cases(rs):
    with pytest.raises(ValueError, match="'cases' must be a list"):
        ResultSet.from_sweep({"cases": 1, "n_cases": 1})


def test_format_table_is_shared_with_the_bench_harness():
    """One renderer: the bench layout and the report layout must never
    drift apart (regression: report.py carried a copy)."""
    from repro.bench import fig8
    from repro.results import report
    from repro.util.tables import format_table

    assert fig8.format_table is format_table
    assert report.format_table is format_table
