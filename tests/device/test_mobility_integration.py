"""Tests driving scripted departures through the full system."""


from repro.checkpoint import MobiStreamsScheme

from tests.baselines._harness import build_system, sink_seqs


def test_static_mobility_changes_nothing():
    s = build_system(MobiStreamsScheme, period=60.0)
    s.run(300.0)
    assert not any(True for _ in s.trace.select("phone_departed"))


def test_scripted_departure_drives_the_region():
    s = build_system(MobiStreamsScheme, period=60.0)
    s.start()
    gone = s.regions[0].placement.node_for("M1", 0)
    s.sim.call_at(100.0, s.apply_departure, gone)
    s.run(400.0)
    deps = list(s.trace.select("departure_state_transfer"))
    assert len(deps) == 1 and deps[0].data["departed"] == gone
    assert not s.regions[0].stopped
    seqs = sink_seqs(s)
    assert len(seqs) == len(set(seqs)) == 200


def test_periodic_departures_rotate_phones():
    """Table I scenario 2: one phone leaves every period."""
    s = build_system(MobiStreamsScheme, period=60.0, idle=6)
    s.start()
    m1, m2 = (s.regions[0].placement.node_for("M1", 0),
              s.regions[0].placement.node_for("M2", 0))
    for i, pid in enumerate([m1, m2]):
        s.sim.call_at(90.0 * (i + 1), s.apply_departure, pid)
    s.run(400.0)
    deps = [r.data["departed"] for r in s.trace.select("departure_state_transfer")]
    assert deps == [m1, m2]
    assert not s.regions[0].stopped
    seqs = sink_seqs(s)
    assert len(seqs) == len(set(seqs)) == 200


def test_simultaneous_builder_hits_all_at_once():
    s = build_system(MobiStreamsScheme, period=60.0, idle=6)
    s.start()
    targets = [s.regions[0].placement.node_for("M1", 0),
               s.regions[0].placement.node_for("M2", 0)]
    for pid in targets:
        s.sim.call_at(100.0, s.apply_departure, pid)
    s.run(400.0)
    departed = [r for r in s.trace.select("phone_departed")]
    assert {r.data["phone"] for r in departed} == set(targets)
    assert all(abs(r.time - 100.0) < 1e-9 for r in departed)
    assert not s.regions[0].stopped


def test_table1_recurring_runner_shapes():
    from repro.bench.table1 import run_ms_recurring

    t_dep, l_dep = run_ms_recurring("bcp", "depart", duration_s=650.0,
                                    fault_period_s=300.0, warmup_s=100.0)
    t_fail, l_fail = run_ms_recurring("bcp", "fail", duration_s=650.0,
                                      fault_period_s=300.0, warmup_s=100.0)
    # Departures are cheap (state transfer); failures pay restore+catch-up.
    assert t_dep > t_fail > 0
