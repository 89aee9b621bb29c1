"""Unit tests for metrics extraction (Section IV's methodology)."""

import math

import pytest

from repro.core.metrics import MetricsReport, compute_metrics
from repro.sim.monitor import Trace


def make_trace(outputs):
    """A trace with sink_output records: (time, region, latency)."""
    trace = Trace()
    for t, region, latency in outputs:
        trace.record(t, "sink_output", region=region,
                     entered_at=t - latency, latency=latency, seq=0)
    return trace


def test_throughput_counts_outputs_over_window():
    """The window is half-open: [warmup, until)."""
    trace = make_trace([(t, "r0", 1.0) for t in (10, 20, 30, 40)])
    m = compute_metrics(trace, ["r0"], warmup_s=0.0, until=45.0)
    assert m.per_region["r0"].output_tuples == 4
    assert m.per_region["r0"].throughput_tps == pytest.approx(4 / 45)
    cut = compute_metrics(trace, ["r0"], warmup_s=0.0, until=40.0)
    assert cut.per_region["r0"].output_tuples == 3


def test_warmup_cut_drops_early_outputs():
    trace = make_trace([(5, "r0", 1.0), (15, "r0", 1.0), (25, "r0", 1.0)])
    m = compute_metrics(trace, ["r0"], warmup_s=10.0, until=30.0)
    assert m.per_region["r0"].output_tuples == 2
    assert m.per_region["r0"].throughput_tps == pytest.approx(2 / 20)


def test_latency_mean_and_p95():
    lats = [1.0, 2.0, 3.0, 4.0, 100.0]
    trace = make_trace([(10 + i, "r0", l) for i, l in enumerate(lats)])
    m = compute_metrics(trace, ["r0"], until=30.0)
    rm = m.per_region["r0"]
    assert rm.mean_latency_s == pytest.approx(sum(lats) / len(lats))
    assert rm.p95_latency_s == 100.0  # the tail point


def test_regions_are_separated():
    trace = make_trace([(10, "r0", 1.0), (11, "r1", 2.0), (12, "r1", 4.0)])
    m = compute_metrics(trace, ["r0", "r1"], until=20.0)
    assert m.per_region["r0"].output_tuples == 1
    assert m.per_region["r1"].output_tuples == 2
    assert m.per_region["r1"].mean_latency_s == pytest.approx(3.0)


def test_empty_region_yields_nan_latency():
    trace = make_trace([(10, "r0", 1.0)])
    m = compute_metrics(trace, ["r0", "r1"], until=20.0)
    assert m.per_region["r1"].output_tuples == 0
    assert math.isnan(m.per_region["r1"].mean_latency_s)
    assert math.isnan(m.per_region["r1"].p95_latency_s)


def test_counters_flow_into_report():
    trace = make_trace([(10, "r0", 1.0)])
    trace.count("ft.preserved_bytes", 111)
    trace.count("ft.network_bytes", 22)
    trace.count("net.wifi.bytes", 3)
    trace.record(15.0, "recovery_finished", outcome="recovered")
    m = compute_metrics(trace, ["r0"], until=20.0)
    assert m.preserved_bytes == 111
    assert m.ft_network_bytes == 22
    assert m.wifi_bytes == 3
    assert m.recoveries == 1


def test_end_to_end_latency_is_last_region():
    trace = make_trace([(10, "r0", 1.0), (11, "r2", 7.0)])
    m = compute_metrics(trace, ["r0", "r1", "r2"], until=20.0)
    assert m.end_to_end_latency_s == pytest.approx(7.0)


def test_end_to_end_latency_empty_report():
    m = MetricsReport(window_start=0.0, window_end=1.0)
    assert math.isnan(m.end_to_end_latency_s)


def test_until_defaults_to_last_record():
    trace = make_trace([(10, "r0", 1.0), (50, "r0", 1.0)])
    m = compute_metrics(trace, ["r0"])
    assert m.window_end == 50.0


def test_region_lookup_by_name():
    trace = make_trace([(10, "r0", 1.0)])
    m = compute_metrics(trace, ["r0", "r1"], until=20.0)
    assert m.region("r0") is m.per_region["r0"]


def test_region_lookup_unknown_name_lists_known_regions():
    trace = make_trace([(10, "r0", 1.0)])
    m = compute_metrics(trace, ["r0", "r1"], until=20.0)
    with pytest.raises(ValueError, match="unknown region 'dc'.*r0, r1"):
        m.region("dc")


def test_region_lookup_on_empty_report():
    m = MetricsReport(window_start=0.0, window_end=1.0)
    with pytest.raises(ValueError, match="<none>"):
        m.region("r0")
