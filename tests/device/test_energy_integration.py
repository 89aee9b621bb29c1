"""Tests for the energy model's runtime integration (Section III-D).

"A node can also actively report its own failure to the controller, for
example, when its battery is at chronic levels" — chronic batteries
trigger proactive handoff under MobiStreams; empty batteries crash the
phone like any failure.
"""

from collections import Counter

from repro.baselines import NoFaultTolerance
from repro.checkpoint import MobiStreamsScheme
from repro.device.battery import BatteryConfig
from repro.device.phone import PhoneConfig

from tests.baselines._harness import PipelineApp, build_system, sink_seqs


def drain_phone(system, phone_id, to_fraction):
    """Set one phone's charge to a fraction of capacity."""
    phone = system.regions[0].phones[phone_id]
    phone.battery.remaining_j = phone.battery.config.capacity_j * to_fraction


def test_idle_drain_accumulates():
    sys_ = build_system(NoFaultTolerance)
    sys_.run(120.0)
    for phone in sys_.regions[0].phones.values():
        assert phone.battery.fraction < 1.0


def test_radio_and_cpu_drain_exceed_idle():
    """Computing phones burn more than idle spares (CPU + radio draws)."""
    sys_ = build_system(NoFaultTolerance)
    sys_.run(300.0)
    region = sys_.regions[0]
    m1 = region.phones[region.placement.node_for("M1", 0)]
    idle = region.phones["region0.idle0"]
    assert m1.battery.remaining_j < idle.battery.remaining_j


def test_battery_death_crashes_the_phone():
    sys_ = build_system(NoFaultTolerance)
    sys_.start()
    hit = sys_.regions[0].placement.node_for("M1", 0)
    # Leave just a sliver below critical; idle drain finishes it quickly
    # and no proactive handoff fires under NoFT anyway.
    drain_phone(sys_, hit, 0.00001)
    sys_.run(200.0)
    assert not sys_.regions[0].phones[hit].alive
    crashes = [r for r in sys_.trace.select("phone_crashed")
               if r.data["phone"] == hit]
    assert crashes and crashes[0].data["reason"] == "battery dead"
    # NoFT cannot recover from the loss.
    assert sys_.regions[0].stopped


def test_chronic_battery_triggers_self_report():
    sys_ = build_system(NoFaultTolerance)
    sys_.start()
    hit = sys_.regions[0].placement.node_for("M2", 0)
    drain_phone(sys_, hit, 0.02)  # below the 3% chronic threshold
    sys_.run(30.0)
    reports = list(sys_.trace.select("battery_critical"))
    assert any(r.data["phone"] == hit for r in reports)
    # Reported once, not every tick.
    assert sum(1 for r in reports if r.data["phone"] == hit) == 1


def test_mobistreams_hands_off_before_death():
    """Proactive handoff: state moves to a spare while the phone lives,
    so the region needs no restoration or catch-up when it dies."""
    sys_ = build_system(MobiStreamsScheme, period=60.0)
    sys_.start()
    hit = sys_.regions[0].placement.node_for("M1", 0)
    sys_.sim.call_at(100.0, lambda: drain_phone(sys_, hit, 0.02))
    sys_.run(400.0)
    region = sys_.regions[0]
    handoffs = list(sys_.trace.select("handoff_finished"))
    assert any(h.data["phone"] == hit and h.data["outcome"] == "replaced"
               for h in handoffs)
    assert region.placement.node_for("M1", 0) != hit
    assert not region.stopped
    # Proactive handoff is not a recovery: no MRC restore, no catch-up.
    assert not any(True for _ in sys_.trace.select("catchup_started"))
    seqs = sink_seqs(sys_)
    assert len(seqs) == len(set(seqs))
    assert len(seqs) == 200


def test_self_report_without_spares_waits_for_the_crash():
    sys_ = build_system(MobiStreamsScheme, idle=0, period=60.0)
    sys_.start()
    hit = sys_.regions[0].placement.node_for("M1", 0)
    drain_phone(sys_, hit, 0.02)
    sys_.run(60.0)
    # Self-report recorded, but no handoff possible without a spare.
    assert any(True for _ in sys_.trace.select("self_report"))
    assert not any(True for _ in sys_.trace.select("handoff_finished"))


def test_battery_monitor_can_be_disabled():
    from repro.core.system import MobiStreamsSystem, SystemConfig
    from repro.core.region import RegionConfig

    cfg = SystemConfig(
        n_regions=1, phones_per_region=4, idle_per_region=2, master_seed=5,
        region_defaults=RegionConfig(name="_", battery_tick_s=0.0),
    )
    sys_ = MobiStreamsSystem(cfg, PipelineApp(), NoFaultTolerance)
    sys_.run(120.0)
    idle = sys_.regions[0].phones["region0.idle0"]
    assert idle.battery.fraction == 1.0  # no idle drain charged


def test_low_capacity_fleet_fails_organically():
    """Long runs on small batteries produce organic failures."""
    from repro.core.system import MobiStreamsSystem, SystemConfig

    tiny = PhoneConfig(battery=BatteryConfig(capacity_j=40.0))
    cfg = SystemConfig(n_regions=1, phones_per_region=4, idle_per_region=2,
                       master_seed=5, phone=tiny)
    sys_ = MobiStreamsSystem(cfg, PipelineApp(), NoFaultTolerance)
    sys_.run(400.0)
    assert any(True for _ in sys_.trace.select("battery_dead"))


# Phones parked below the 3 % chronic threshold half a tick before the
# given battery tick (5 s ticks), plus one left to die at tick 4.
PARKED = {1: ["region0.idle0", "region0.idle1"], 3: ["region0.idle2", "M2"],
          6: ["region0.idle3", "region0.idle4"]}
DYING = (4, "region0.idle5")
TICKS = 12


def _parked_battery_run(backend, monkeypatch=None):
    """Run the pipeline with PARKED/DYING applied on one device backend;
    returns the system and, on the fleet backend, per-tick counts of
    ``Fleet.id_at`` calls and of critical phones the sweep returned."""
    from repro.core.system import MobiStreamsSystem, SystemConfig

    cfg = SystemConfig(n_regions=1, phones_per_region=4, idle_per_region=8,
                       master_seed=5, device_backend=backend)
    sys_ = MobiStreamsSystem(cfg, PipelineApp(), NoFaultTolerance)
    sys_.start()
    region = sys_.regions[0]
    tick = region.config.battery_tick_s
    for at, phones in PARKED.items():
        for pid in phones:
            if pid == "M2":
                pid = region.placement.node_for("M2", 0)
            sys_.sim.call_at((at - 0.5) * tick, drain_phone, sys_, pid, 0.02)
    sys_.sim.call_at((DYING[0] - 0.5) * tick, drain_phone, sys_, DYING[1], 1e-7)
    id_at_calls, swept_critical = Counter(), Counter()
    if backend == "fleet":
        fleet = sys_.fleet
        id_at, sweep = fleet.id_at, fleet.sweep_battery

        def counting_id_at(index):
            id_at_calls[sys_.sim.now] += 1
            return id_at(index)

        def counting_sweep(indices, seconds):
            dead, critical = sweep(indices, seconds)
            swept_critical[sys_.sim.now] += critical.size
            return dead, critical

        monkeypatch.setattr(fleet, "id_at", counting_id_at)
        monkeypatch.setattr(fleet, "sweep_battery", counting_sweep)
    sys_.run(TICKS * tick + 1.0)
    return sys_, id_at_calls, swept_critical


def _battery_records(sys_):
    return [r for r in sys_.trace.records
            if r.category in ("battery_critical", "battery_dead")]


def test_fleet_battery_tick_visits_only_newly_flagged_phones(monkeypatch):
    """Parked phones stay critical tick after tick, yet the fleet loop
    looks up a phone id only when it is newly critical or dead: the
    already-reported ones are masked out in numpy."""
    sys_, id_at_calls, swept_critical = _parked_battery_run("fleet", monkeypatch)
    records = _battery_records(sys_)
    critical = [r.data["phone"] for r in records if r.category == "battery_critical"]
    k = sum(len(phones) for phones in PARKED.values())
    assert len(critical) == len(set(critical)) == k
    assert [r.data["phone"] for r in records if r.category == "battery_dead"] == [DYING[1]]
    assert id_at_calls == Counter(r.time for r in records)
    # Not vacuous: the sweep kept returning every parked phone.
    assert sum(swept_critical.values()) > 3 * k


def test_fleet_battery_records_match_object_backend(monkeypatch):
    fleet_sys, _calls, _swept = _parked_battery_run("fleet", monkeypatch)
    object_sys, _calls, _swept = _parked_battery_run("object")
    assert _battery_records(fleet_sys) == _battery_records(object_sys)
    assert _battery_records(object_sys)
