"""Fleet (struct-of-arrays) backend vs the classic per-object backend.

The fleet's contract is *bit-identical* IEEE-754 parity with the scalar
``Battery``/``Phone`` path: every batch op mirrors the scalar arithmetic
(same operand order, same clamps, float64 throughout), so the two device
backends can be compared event-for-event at small n.
"""

import numpy as np
import pytest

from repro.device.battery import Battery, BatteryConfig
from repro.device.fleet import Fleet, FleetBattery, FleetPhone
from repro.device.phone import Phone, PhoneConfig
from repro.net.topology import Position


def _pair(i=0, config=None, charge=1.0):
    """A (scalar Phone, FleetPhone) pair with identical parameters."""
    fleet = Fleet()
    pos = Position(3.0 * i, 4.0 * i)
    scalar = Phone(f"p{i}", pos, config, charge)
    proxy = fleet.create_phone(f"p{i}", pos, config, charge)
    return scalar, proxy


# -- proxy API parity -----------------------------------------------------
def test_create_phone_validates_like_phone():
    fleet = Fleet()
    fleet.create_phone("a", Position(0, 0))
    with pytest.raises(ValueError, match="already in fleet"):
        fleet.create_phone("a", Position(1, 1))
    with pytest.raises(ValueError, match="charge_fraction"):
        fleet.create_phone("b", Position(0, 0), charge_fraction=1.5)


def test_proxy_mirrors_phone_surface():
    cfg = PhoneConfig(cpu_speed=2.0)
    scalar, proxy = _pair(config=cfg, charge=0.5)
    assert proxy.id == scalar.id
    assert proxy.alive is True
    assert proxy.position == scalar.position
    assert proxy.compute_time(3.0) == scalar.compute_time(3.0)
    with pytest.raises(ValueError):
        proxy.compute_time(-1.0)
    assert proxy.battery.remaining_j == scalar.battery.remaining_j
    assert proxy.battery.fraction == scalar.battery.fraction
    assert proxy.battery.config is cfg.battery
    proxy.crash()
    assert proxy.alive is False


def test_position_setter_writes_arrays():
    _, proxy = _pair()
    proxy.position = Position(7.0, -2.0)
    assert proxy.fleet.pos_x[proxy.index] == 7.0
    assert proxy.fleet.pos_y[proxy.index] == -2.0
    assert proxy.position == Position(7.0, -2.0)


def test_storage_is_lazy():
    _, proxy = _pair()
    assert proxy._storage is None  # idle spares never touch flash
    st = proxy.storage
    assert st.capacity_bytes == proxy.config.storage_bytes
    assert proxy.storage is st  # memoized


def test_fleet_lookup_round_trips():
    fleet = Fleet()
    phones = [fleet.create_phone(f"p{i}", Position(i, i)) for i in range(5)]
    for i, p in enumerate(phones):
        assert fleet.id_at(i) == p.id
        assert fleet.phone_at(i) is p
    assert len(fleet) == 5


def test_growth_preserves_state():
    fleet = Fleet(capacity=2)
    phones = [
        fleet.create_phone(f"p{i}", Position(i, 0), charge_fraction=0.5)
        for i in range(200)
    ]
    assert len(fleet) == 200
    for i, p in enumerate(phones):
        assert p.battery.remaining_j == 8000.0
        assert fleet.pos_x[i] == float(i)
        assert p.alive


# -- battery float parity -------------------------------------------------
def test_battery_drains_bit_identical():
    cfg = PhoneConfig(battery=BatteryConfig(capacity_j=123.456, idle_w=0.017))
    scalar, proxy = _pair(config=cfg, charge=0.9)
    for seconds in (0.1, 7.3, 1e-9, 50.0, 1234.5):
        scalar.battery.drain_idle(seconds)
        proxy.battery.drain_idle(seconds)
        assert proxy.battery.remaining_j == scalar.battery.remaining_j
    scalar.battery.drain_cpu(2.5)
    proxy.battery.drain_cpu(2.5)
    scalar.battery.drain_wifi(1_000_000)
    proxy.battery.drain_wifi(1_000_000)
    scalar.battery.drain_cellular(40_000)
    proxy.battery.drain_cellular(40_000)
    assert proxy.battery.remaining_j == scalar.battery.remaining_j
    assert proxy.battery.fraction == scalar.battery.fraction
    assert proxy.battery.is_critical == scalar.battery.is_critical
    assert proxy.battery.is_dead == scalar.battery.is_dead


def test_batch_drain_matches_scalar_loop_bitwise():
    fleet = Fleet()
    scalars = []
    rng = np.random.default_rng(7)
    for i in range(50):
        charge = float(rng.uniform(0.01, 1.0))
        cfg = PhoneConfig(
            battery=BatteryConfig(idle_w=float(rng.uniform(0.05, 0.4)))
        )
        scalars.append(Battery(cfg.battery, charge))
        fleet.create_phone(f"p{i}", Position(0, 0), cfg, charge)
    idx = np.arange(50)
    for seconds in (15.0, 3600.0, 0.25):
        fleet.sweep_battery(idx, seconds)
        for b in scalars:
            b.drain_idle(seconds)
        got = fleet.remaining_j[:50]
        want = np.array([b.remaining_j for b in scalars])
        assert np.array_equal(got, want)  # bitwise, not approx


def test_batch_drain_skips_dead_phones():
    fleet = Fleet()
    for i in range(4):
        fleet.create_phone(f"p{i}", Position(0, 0))
    fleet.phone_at(1).crash()
    before = fleet.remaining_j[1]
    fleet.sweep_battery(np.arange(4), 100.0)
    assert fleet.remaining_j[1] == before  # dead phone untouched
    assert (fleet.remaining_j[[0, 2, 3]] < before).all()


def test_sweep_battery_matches_scalar_ladder():
    """One tick of sweep_battery reproduces the object backend's
    is_dead / elif is_critical classification, in creation order."""
    fleet = Fleet()
    scalars = []
    # Charges straddling dead (0), critical (<= 3%), and healthy.
    charges = [0.0001, 0.5, 0.031, 0.02, 1.0, 0.0301]
    for i, charge in enumerate(charges):
        scalars.append(Battery(BatteryConfig(), charge))
        fleet.create_phone(f"p{i}", Position(0, 0), charge_fraction=charge)
    seconds = 15.0
    dead, critical = fleet.sweep_battery(np.arange(len(charges)), seconds)
    want_dead, want_critical = [], []
    for i, b in enumerate(scalars):
        b.drain_idle(seconds)
        if b.is_dead:
            want_dead.append(i)
        elif b.is_critical:
            want_critical.append(i)
    assert dead.tolist() == want_dead
    assert critical.tolist() == want_critical
    # The drained ledgers agree bitwise too.
    got = fleet.remaining_j[: len(charges)]
    assert np.array_equal(got, np.array([b.remaining_j for b in scalars]))


def test_sweep_battery_reports_each_death_once():
    fleet = Fleet()
    fleet.create_phone("p0", Position(0, 0), charge_fraction=0.0001)
    idx = np.arange(1)
    dead, _ = fleet.sweep_battery(idx, 100.0)
    assert dead.tolist() == [0]
    # The region marks reported phones dead; after that the sweep skips
    # them (alive mask), so the death is not re-reported.
    fleet.phone_at(0).crash()
    dead, critical = fleet.sweep_battery(idx, 100.0)
    assert dead.size == 0 and critical.size == 0




def test_shared_default_config_is_not_aliased_state():
    """Default-configured phones share one PhoneConfig object; battery
    state still lives per-slot in the arrays."""
    fleet = Fleet()
    a = fleet.create_phone("a", Position(0, 0))
    b = fleet.create_phone("b", Position(0, 0))
    assert a.config is b.config
    a.battery.drain(1000.0)
    assert b.battery.remaining_j == b.battery.config.capacity_j


def test_proxy_types_have_slots():
    assert not hasattr(FleetPhone(Fleet(), 0, "x", PhoneConfig()), "__dict__")
    assert not hasattr(FleetBattery(Fleet(), 0), "__dict__")
