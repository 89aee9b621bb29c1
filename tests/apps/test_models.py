"""Tests for BCP's statistical models and SignalGuru's signal model."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.apps.bcp.models import (
    AlightingModel,
    ArrivalTimeModel,
    BoardingModel,
    CapacityModel,
    OnlineStats,
    clip,
)
from repro.apps.signalguru.signal_model import TrafficSignal


def test_online_stats_converges_to_mean():
    st = OnlineStats(alpha=0.3)
    for _ in range(100):
        st.update(10.0)
    assert st.mean == pytest.approx(10.0, abs=0.1)
    assert st.count == 100


def test_online_stats_snapshot_restore():
    st = OnlineStats(alpha=0.2)
    st.update(5.0)
    snap = st.snapshot()
    st.update(100.0)
    st.restore(snap)
    assert st.mean == snap["mean"]
    st.restore(None)
    assert st.count == 0


def test_online_stats_alpha_validation():
    with pytest.raises(ValueError):
        OnlineStats(alpha=0.0)


def test_boarding_model_learns_fraction():
    m = BoardingModel()
    for _ in range(60):
        m.observe(waiting_count=10, boarded=4)  # 40% board
    assert m.predict(20) == pytest.approx(8.0, rel=0.15)
    assert m.predict(0) == 0.0


def test_alighting_model_learns_fraction():
    m = AlightingModel()
    for _ in range(60):
        m.observe(on_bus=40, alighted=10)  # 25%
    assert m.predict(40) == pytest.approx(10.0, rel=0.15)


def test_arrival_model_tracks_travel_time():
    m = ArrivalTimeModel(prior_s=120.0)
    for _ in range(60):
        m.observe(90.0)
    assert m.predict() == pytest.approx(90.0, rel=0.1)


def test_capacity_model_combines_and_clamps():
    cm = CapacityModel(max_capacity=60)
    assert cm.predict(on_bus=30, alighting=10, boarding=15) == 35
    assert cm.predict(on_bus=59, alighting=0, boarding=20) == 60  # clamp
    assert cm.predict(on_bus=3, alighting=10, boarding=0) == 0    # floor
    with pytest.raises(ValueError):
        CapacityModel(0)


def test_traffic_signal_cycle():
    sig = TrafficSignal(red_s=40, green_s=35, yellow_s=4)
    assert sig.cycle_s == 79
    assert sig.phase_at(0)[0] == "red"
    assert sig.phase_at(41)[0] == "green"
    assert sig.phase_at(76)[0] == "yellow"
    assert sig.phase_at(79)[0] == "red"  # wraps


def test_traffic_signal_time_to_transition():
    sig = TrafficSignal(red_s=40, green_s=35, yellow_s=4)
    phase, elapsed, tta = sig.phase_at(10.0)
    assert phase == "red"
    assert elapsed == pytest.approx(10.0)
    assert tta == pytest.approx(30.0)


def test_traffic_signal_validation():
    with pytest.raises(ValueError):
        TrafficSignal(red_s=0)


def _same_float(a, b):
    """Equal as IEEE values: NaN matches NaN, and -0.0 differs from 0.0."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


_BOUNDS = st.sampled_from([(0.0, 1.0), (-0.0, 1.0), (0.0, 60.0), (0.0, 0.0), (-0.0, 0.0)])


@given(x=st.floats(allow_nan=True, allow_infinity=True), bounds=_BOUNDS)
@example(x=0.0, bounds=(0.0, 1.0))
@example(x=-0.0, bounds=(0.0, 1.0))
@example(x=-0.0, bounds=(-0.0, 0.0))
@example(x=0.0, bounds=(-0.0, 0.0))
@example(x=math.nan, bounds=(0.0, 1.0))
@example(x=math.inf, bounds=(0.0, 60.0))
@example(x=-math.inf, bounds=(0.0, 60.0))
def test_clip_equals_numpy_clip(x, bounds):
    lo, hi = bounds
    got = clip(x, lo, hi)
    assert type(got) is float
    assert _same_float(got, float(np.clip(x, lo, hi)))
