"""Typed case rows: schema round-trip, accessors, strict errors."""

import json
import math

import pytest

from repro.core.metrics import MetricsReport, RegionMetrics
from repro.results import SCHEMA_VERSION, CaseResult, RegionResult


def make_report():
    """A two-region report; region1 never produced output (NaN latency)."""
    report = MetricsReport(window_start=40.0, window_end=200.0)
    report.per_region["region0"] = RegionMetrics(
        region="region0", output_tuples=10, throughput_tps=0.0625,
        mean_latency_s=1.5, p95_latency_s=3.25)
    report.per_region["region1"] = RegionMetrics(
        region="region1", output_tuples=0, throughput_tps=0.0,
        mean_latency_s=float("nan"), p95_latency_s=float("nan"))
    report.preserved_bytes = 1024.0
    report.ft_network_bytes = 512.0
    report.wifi_bytes = 4096.0
    report.cellular_bytes = 64.0
    report.recoveries = 2
    report.departures_handled = 1
    return report


EXPECTED_ROW = {
    "scenario": "t",
    "app": "bcp",
    "scheme": "ms-8",
    "seed": 3,
    "regions": {
        "region0": {"output_tuples": 10, "throughput_tps": 0.0625,
                    "mean_latency_s": 1.5, "p95_latency_s": 3.25,
                    "stopped": False},
        "region1": {"output_tuples": 0, "throughput_tps": 0.0,
                    "mean_latency_s": None, "p95_latency_s": None,
                    "stopped": True},
    },
    # e2e latency reads the *last* region, which is NaN here -> null.
    "end_to_end_latency_s": None,
    "preserved_bytes": 1024.0,
    "ft_network_bytes": 512.0,
    "wifi_bytes": 4096.0,
    "cellular_bytes": 64.0,
    "recoveries": 2,
    "departures_handled": 1,
}


@pytest.fixture()
def case():
    return CaseResult.from_report(
        scenario="t", app="bcp", scheme="ms-8", seed=3,
        report=make_report(), region_stopped=[False, True])


def test_schema_version_is_one():
    assert SCHEMA_VERSION == 1


def test_from_report_produces_the_exact_artifact_row(case):
    assert case.to_dict() == EXPECTED_ROW
    # NaN became null: the row is strict JSON.
    json.dumps(case.to_dict(), allow_nan=False)


def test_row_round_trips_byte_exactly(case):
    row = case.to_dict()
    again = CaseResult.from_dict(row).to_dict()
    assert json.dumps(again, sort_keys=True) == json.dumps(row, sort_keys=True)
    # Typed equality holds too.
    assert CaseResult.from_dict(row) == case


def test_from_dict_rejects_unknown_keys(case):
    row = case.to_dict()
    row["surprise"] = 1
    with pytest.raises(ValueError, match="unknown key.*surprise"):
        CaseResult.from_dict(row)


def test_from_dict_rejects_missing_keys(case):
    row = case.to_dict()
    del row["preserved_bytes"]
    with pytest.raises(ValueError, match="missing key.*preserved_bytes"):
        CaseResult.from_dict(row)


def test_region_row_is_strict_too(case):
    row = case.to_dict()
    row["regions"]["region0"]["extra"] = 1
    with pytest.raises(ValueError, match="region 'region0'"):
        CaseResult.from_dict(row)


def test_region_lookup_lists_known_names(case):
    assert case.region("region1").output_tuples == 0
    with pytest.raises(ValueError, match="region0, region1"):
        case.region("region9")


def test_first_region_and_stopped(case):
    assert case.first_region.name == "region0"
    assert case.stopped  # region1 stopped
    assert case.total_output_tuples == 10


def test_numeric_accessors_coerce_null_to_nan(case):
    assert case.throughput == 0.0625
    assert case.latency_s == 1.5
    assert case.end_to_end_latency_s is None  # the raw artifact value
    assert math.isnan(case.region("region1").latency_s)


def test_value_resolves_aliases_fields_and_dotted_metrics(case):
    assert case.value("throughput") == 0.0625
    assert case.value("latency") == 1.5
    assert case.value("p95_latency") == 3.25
    assert case.value("e2e_latency") is None
    assert case.value("output_tuples") == 10
    assert case.value("preserved_bytes") == 1024.0
    assert case.value("recoveries") == 2
    assert case.value("region1.output_tuples") == 0
    assert case.value("region1.mean_latency_s") is None


def test_value_unknown_metric_lists_candidates(case):
    with pytest.raises(ValueError, match="unknown metric 'nope'"):
        case.value("nope")
    with pytest.raises(ValueError, match="region metrics"):
        case.value("region0.nope")
    with pytest.raises(ValueError, match="regions in this case"):
        case.value("region9.output_tuples")


def test_axis_lookup(case):
    assert case.axis("scheme") == "ms-8"
    assert case.axis("seed") == 3
    with pytest.raises(ValueError, match="unknown case axis"):
        case.axis("nope")


def test_replace_swaps_fields_on_the_frozen_case(case):
    other = case.replace(scheme="other")
    assert other.scheme == "other"
    assert case.scheme == "ms-8"
    assert other.regions == case.regions


def test_key_is_the_matrix_coordinates(case):
    assert case.key == ("bcp", "ms-8", 3)


def test_region_result_to_dict_excludes_the_name():
    rr = RegionResult(name="r", output_tuples=1, throughput_tps=1.0,
                      mean_latency_s=2.0, p95_latency_s=3.0, stopped=False)
    assert "name" not in rr.to_dict()
    assert RegionResult.from_dict("r", rr.to_dict()) == rr


def test_from_dict_rejects_non_mapping_rows():
    with pytest.raises(ValueError, match="must be a mapping"):
        CaseResult.from_dict(1)
    with pytest.raises(ValueError, match="must be a mapping"):
        RegionResult.from_dict("r0", [1, 2])
