"""Smoke tests for the per-table/figure artifact runners.

Full-length runs live in ``benchmarks/``; these short runs check the
runners' mechanics (shapes, normalization, tolerance cutoffs, report
formatting) so a broken bench fails fast in the unit suite.
"""

import pytest

from repro.bench import fig8, fig9, fig10, table1
from repro.scenarios import MatrixSpec


DURATION = 400.0  # BCP end-to-end latency is tens of seconds
BCP_ALL = MatrixSpec(apps=("bcp",), schemes=fig8.SCHEME_ORDER)


def test_table1_paper_constants_present():
    for app in ("bcp", "signalguru"):
        rows = table1.PAPER[app]
        assert set(rows) == {"server", "ms_ft_off", "ms_departures", "ms_failures"}


def test_table1_server_point_runs():
    tput, lat = table1.run_server_point("bcp", uplink_mbps=0.32,
                                        duration_s=DURATION, warmup_s=100.0)
    assert tput >= 0
    assert lat == lat or tput == 0  # latency is NaN only with no outputs


def test_fig9_tolerance_table_matches_schemes():
    assert fig9.TOLERANCE["rep-2"] == 1
    assert fig9.TOLERANCE["dist-3"] == 3
    assert fig9.TOLERANCE["ms-8"] is None


def test_fig9_point_failure_recovers():
    tput, lat, ok = fig9.run_fig9_point(
        "bcp", "ms-8", n=2, mode="fail", duration_s=300.0, fault_time=150.0)
    assert ok
    assert tput > 0


def test_fig9_point_beyond_tolerance_stops_region():
    tput, lat, ok = fig9.run_fig9_point(
        "bcp", "dist-1", n=2, mode="fail", duration_s=300.0, fault_time=150.0)
    assert not ok


def test_fig9_zero_point_has_no_faults():
    tput, lat, ok = fig9.run_fig9_point(
        "bcp", "base", n=0, mode="fail", duration_s=DURATION, fault_time=200.0)
    assert ok and tput > 0


def test_fig10_relative_to_ms():
    # ms-8's multi-MB broadcasts need a couple hundred seconds of air
    # time beyond the period before the volumes are representative.
    cases = fig8.run_fig8(800.0, checkpoint_period_s=200.0, matrix=BCP_ALL)
    rel = fig10.relative(cases)
    assert rel["ms-8"]["preservation"] == pytest.approx(1.0)
    assert rel["ms-8"]["ckpt_network"] == pytest.approx(1.0)
    assert rel["base"]["preservation"] == 0.0
    assert rel["base"]["ckpt_network"] == 0.0
    assert rel["rep-2"]["preservation"] == 0.0
    assert rel["local"]["ckpt_network"] < 0.05


def test_fig8_run_produces_all_schemes():
    cases = fig8.run_fig8(DURATION, warmup_s=100.0, matrix=BCP_ALL)
    assert cases.schemes == fig8.SCHEME_ORDER
    rel = fig8.relative(cases)
    assert rel["base"]["throughput"] == pytest.approx(1.0)
    for label in fig8.SCHEME_ORDER:
        assert rel[label]["latency"] > 0
