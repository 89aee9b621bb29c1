"""Tests for max-min fair allocation and the processor-sharing pipe."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import FairSharePipe, max_min_fair_rates
from repro.sim import Simulator
from repro.util import MB, Mbps


# -- allocation ----------------------------------------------------------
def test_equal_shares_without_caps():
    rates = max_min_fair_rates(90.0, [np.inf, np.inf, np.inf])
    assert rates.tolist() == [30.0, 30.0, 30.0]


def test_capped_flow_redistributes():
    rates = max_min_fair_rates(90.0, [10.0, np.inf, np.inf])
    assert rates.tolist() == [10.0, 40.0, 40.0]


def test_all_capped_below_capacity():
    rates = max_min_fair_rates(100.0, [10.0, 20.0])
    assert rates.tolist() == [10.0, 20.0]


def test_empty_flows():
    assert max_min_fair_rates(100.0, []).size == 0


def test_negative_capacity_raises():
    with pytest.raises(ValueError):
        max_min_fair_rates(-1.0, [1.0])


def test_negative_cap_raises():
    with pytest.raises(ValueError):
        max_min_fair_rates(1.0, [-1.0])


@given(
    capacity=st.floats(min_value=0.1, max_value=1e9),
    caps=st.lists(st.floats(min_value=0.01, max_value=1e9), min_size=1, max_size=20),
)
def test_allocation_invariants(capacity, caps):
    rates = max_min_fair_rates(capacity, caps)
    # never exceed individual caps
    assert np.all(rates <= np.asarray(caps) * (1 + 1e-9))
    # never exceed capacity
    assert rates.sum() <= capacity * (1 + 1e-9)
    # work-conserving: uses min(capacity, sum of caps)
    expected = min(capacity, float(np.sum(caps)))
    assert rates.sum() == pytest.approx(expected, rel=1e-6)


@given(
    capacity=st.floats(min_value=1.0, max_value=1e6),
    n=st.integers(min_value=1, max_value=10),
)
def test_uncapped_flows_get_equal_shares(capacity, n):
    rates = max_min_fair_rates(capacity, [np.inf] * n)
    assert np.allclose(rates, capacity / n)


# -- pipe ----------------------------------------------------------------
def test_single_transfer_time():
    sim = Simulator()
    pipe = FairSharePipe(sim, capacity_bps=Mbps(8))
    done = pipe.transfer(MB)  # 1 MB over 8 Mbps ≈ 1.048576 s
    sim.run()
    assert done.processed
    assert sim.now == pytest.approx(1.048576)


def test_zero_byte_transfer_completes_immediately():
    sim = Simulator()
    pipe = FairSharePipe(sim, capacity_bps=100.0)
    done = pipe.transfer(0)
    assert done.triggered


def test_two_equal_transfers_share_capacity():
    sim = Simulator()
    pipe = FairSharePipe(sim, capacity_bps=Mbps(8))
    d1 = pipe.transfer(MB)
    d2 = pipe.transfer(MB)
    t_done = []
    d1.add_callback(lambda e: t_done.append(sim.now))
    d2.add_callback(lambda e: t_done.append(sim.now))
    sim.run()
    # Both complete at 2x the solo time.
    assert t_done == [pytest.approx(2 * 1.048576)] * 2


def test_late_arrival_slows_first_flow():
    sim = Simulator()
    pipe = FairSharePipe(sim, capacity_bps=800.0)  # 100 B/s
    times = {}
    d1 = pipe.transfer(100)  # alone: 1 s
    d1.add_callback(lambda e: times.__setitem__("d1", sim.now))

    def second(sim):
        yield sim.timeout(0.5)
        d2 = pipe.transfer(100)
        d2.add_callback(lambda e: times.__setitem__("d2", sim.now))

    sim.process(second(sim))
    sim.run()
    # d1: 50 B alone in 0.5 s, then 50 B at half rate -> 0.5 + 1.0 = 1.5 s
    assert times["d1"] == pytest.approx(1.5)
    # d2: 50 B at half rate (to t=1.5), then 50 B alone -> 0.5+1.0+0.5 = 2.0
    assert times["d2"] == pytest.approx(2.0)


def test_per_flow_cap_respected():
    sim = Simulator()
    pipe = FairSharePipe(sim, capacity_bps=1_000_000.0)
    done = pipe.transfer(1000, cap_bps=8000.0)  # capped at 1000 B/s -> 1 s
    sim.run()
    assert done.processed
    assert sim.now == pytest.approx(1.0)


def test_capped_flow_leaves_room_for_others():
    sim = Simulator()
    pipe = FairSharePipe(sim, capacity_bps=800.0)
    times = {}
    d1 = pipe.transfer(100, cap_bps=80.0)  # 10 B/s cap -> 10 s
    d2 = pipe.transfer(100)  # gets 90 B/s -> ~1.11 s
    d1.add_callback(lambda e: times.__setitem__("d1", sim.now))
    d2.add_callback(lambda e: times.__setitem__("d2", sim.now))
    sim.run()
    assert times["d1"] == pytest.approx(10.0)
    assert times["d2"] == pytest.approx(100.0 / 90.0)


def test_many_flows_contention_scales():
    """n simultaneous identical transfers take ~n times the solo time."""
    def run(n):
        sim = Simulator()
        pipe = FairSharePipe(sim, capacity_bps=8000.0)
        for _ in range(n):
            pipe.transfer(1000)
        sim.run()
        return sim.now

    solo = run(1)
    assert run(4) == pytest.approx(4 * solo)
    assert run(8) == pytest.approx(8 * solo)


def test_transfer_validation():
    sim = Simulator()
    pipe = FairSharePipe(sim, capacity_bps=100.0)
    with pytest.raises(ValueError):
        pipe.transfer(-1)
    with pytest.raises(ValueError):
        pipe.transfer(10, cap_bps=0)
    with pytest.raises(ValueError):
        FairSharePipe(sim, capacity_bps=0)
