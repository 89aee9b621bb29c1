"""Tests for the pieces every bench shares: scheme and app factories,
fault scripts run as scenario cases, and the table renderer."""

import pytest

from repro.apps.registry import create_app
from repro.baselines import (
    ActiveStandby,
    DistributedCheckpoint,
    LocalCheckpoint,
    NoFaultTolerance,
)
from repro.bench.fig8 import SCHEME_ORDER, relative
from repro.checkpoint import MobiStreamsScheme
from repro.results import ResultSet
from repro.scenarios import EventSpec, MatrixSpec, ScenarioSpec, run_case
from repro.scenarios.runner import case_to_type, scheme_factories
from repro.util.tables import format_table


def test_scheme_factories_cover_the_figure_labels():
    factories = scheme_factories()
    assert list(factories) == SCHEME_ORDER
    assert isinstance(factories["base"](), NoFaultTolerance)
    rep = factories["rep-2"]()
    assert isinstance(rep, ActiveStandby) and rep.replication_factor == 2
    assert isinstance(factories["local"](), LocalCheckpoint)
    for n in (1, 2, 3):
        d = factories[f"dist-{n}"]()
        assert isinstance(d, DistributedCheckpoint) and d.n == n
    assert isinstance(factories["ms-8"](), MobiStreamsScheme)


def test_factories_return_fresh_instances():
    f = scheme_factories()["ms-8"]
    assert f() is not f()


def test_unknown_app_rejected():
    with pytest.raises(ValueError):
        create_app("nope")


def run(scheme="ms-8", seed=3, events=(), **overrides):
    """One bcp case of a small scenario with the given fault script."""
    fields = dict(name="bench-t", duration_s=240.0, warmup_s=20.0,
                  idle_per_region=4, checkpoint_period_s=60.0)
    fields.update(overrides)
    spec = ScenarioSpec(
        events=events,
        matrix=MatrixSpec(apps=("bcp",), schemes=(scheme,), seeds=(seed,)),
        **fields)
    return run_case(spec, "bcp", scheme, seed)


def test_seed_changes_results():
    a = case_to_type(run("base", 3, duration_s=400.0, warmup_s=100.0))
    b = case_to_type(run("base", 4, duration_s=400.0, warmup_s=100.0))
    assert (a.throughput, a.latency_s) != (b.throughput, b.latency_s)


def test_crash_config_injects_failures():
    out = run(events=(EventSpec(kind="crash", time=100.0, phones=(3,)),))
    assert out.recoveries >= 1
    assert out.region_stopped == [False]


def test_crash_accepts_a_list_of_timed_faults():
    # Two separate bursts across checkpoint periods.
    out = run(duration_s=300.0, events=(
        EventSpec(kind="crash", time=100.0, phones=(3,)),
        EventSpec(kind="crash", time=200.0, phones=(4,)),
    ))
    assert out.recoveries >= 2
    assert out.region_stopped == [False]


def test_depart_config_triggers_state_transfer():
    out = run(events=(EventSpec(kind="depart", time=100.0, phones=(3,)),))
    assert out.report.departures_handled >= 1
    assert out.region_stopped == [False]


def test_relative_normalizes_to_base():
    base = case_to_type(run("base", duration_s=400.0, warmup_s=100.0))
    rel = relative(ResultSet.from_cases(
        [base, base.replace(scheme="other")]))
    assert rel["base"]["throughput"] == pytest.approx(1.0)
    assert rel["base"]["latency"] == pytest.approx(1.0)
    assert rel["other"]["throughput"] == pytest.approx(1.0)


# -- format_table -----------------------------------------------------------
def test_format_table_alignment():
    txt = format_table(["a", "bee"], [["1", "2"], ["333", "4"]], title="T")
    lines = txt.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bee" in lines[1]
    # All rows share the same width.
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1


def test_format_table_stringifies_cells():
    txt = format_table(["x"], [[3.5], [None]])
    assert "3.5" in txt and "None" in txt
