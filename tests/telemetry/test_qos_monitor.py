"""Tests for the QoS monitor against real (small) scenario runs."""

import dataclasses

import pytest

from repro.scenarios import TelemetrySpec, get, run_case
from repro.sim.core import Simulator


def _quick_spec(telemetry_interval: float = 10.0):
    spec = get("flash-crowd").quick()
    return dataclasses.replace(
        spec, telemetry=TelemetrySpec(interval_s=telemetry_interval))


@pytest.fixture(scope="module")
def telemetry_case():
    """One telemetry-enabled quick case, shared across read-only tests."""
    spec = _quick_spec()
    return spec, run_case(spec, "bcp", "ms-8", 3)


def test_snapshot_cadence_and_tail(telemetry_case):
    spec, result = telemetry_case
    tl = result.timeline
    # 300s at 10s intervals; run(until=) stops before the t=300 sampler
    # fires, so the final sample comes from monitor.finish().
    assert len(tl) == 30
    assert [s.time for s in tl][:3] == [10.0, 20.0, 30.0]
    assert tl.final.time == pytest.approx(spec.duration_s)


def test_snapshots_cover_regions_and_operators(telemetry_case):
    _spec, result = telemetry_case
    tl = result.timeline
    assert tl.region_names() == ["region0"]
    # Every operator of the BCP graph appears, even never-fired ones.
    ops = tl.operator_names()
    assert "region0.S1" in ops and "region0.K" in ops
    final = tl.final
    assert final.regions["region0"].sink_outputs > 0
    assert final.regions["region0"].latency_p50_s is not None
    assert sum(o.tuples for o in final.operators.values()) > 0
    assert final.net.wifi_bytes_per_s >= 0.0


def test_events_processed_streams_live(telemetry_case):
    """Mid-run snapshots carry a current kernel-event count (the inline
    counting mode), strictly increasing across samples."""
    _spec, result = telemetry_case
    counts = [s.events_processed for s in result.timeline]
    assert counts[0] > 0
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


def test_checkpoint_counts_surface(telemetry_case):
    _spec, result = telemetry_case
    final = result.timeline.final.regions["region0"]
    assert final.checkpoints_started >= final.checkpoints_committed >= 0
    assert final.checkpoints_started > 0


def test_committed_waves_reach_both_commit_handlers(monkeypatch):
    """paper-fig8 --quick signalguru/ms-8 at seed 3 commits both of its
    checkpoint waves (a BCP wave outlasts the quick run), so this is
    the case that drives the QoS monitor's and the invariant harness's
    ``checkpoint_complete`` handlers."""
    from repro.verify import harness as harness_module

    armed = []

    class RecordingHarness(harness_module.InvariantHarness):
        def start(self) -> None:
            armed.append(self)
            super().start()

    monkeypatch.setattr(harness_module, "InvariantHarness", RecordingHarness)
    spec = dataclasses.replace(get("paper-fig8").quick(),
                               telemetry=TelemetrySpec())
    result = run_case(spec, "signalguru", "ms-8", 3, verify=True)
    final = result.timeline.final.regions["region0"]
    assert final.checkpoints_committed == 2
    assert armed[0]._regions["region0"].completed == {1, 2}
    assert result.violations == ()


@pytest.mark.parametrize("scheme,recoveries", [("ms-8", 4), ("dist-3", 2)])
def test_crashes_and_recoveries_reach_the_monitor(scheme, recoveries):
    """failure-cascade --quick crashes four phones at seed 3, which
    drives the monitor's ``phone_crashed`` and ``recovery_finished``
    handlers; its recovery count is the case's own."""
    spec = dataclasses.replace(get("failure-cascade").quick(),
                               telemetry=TelemetrySpec(interval_s=10.0))
    result = run_case(spec, "bcp", scheme, 3)
    final = result.timeline.final.regions["region0"]
    assert final.crashes == 4
    assert final.recoveries == result.recoveries == recoveries


def test_metrics_row_identical_with_telemetry_on(telemetry_case):
    """The monitor observes only: enabling it cannot change the row."""
    from repro.scenarios.runner import case_to_dict

    spec, result = telemetry_case
    plain = run_case(dataclasses.replace(spec, telemetry=None),
                     "bcp", "ms-8", 3)
    assert case_to_dict(plain) == case_to_dict(result)


def test_timelines_deterministic_across_runs(telemetry_case):
    spec, result = telemetry_case
    again = run_case(spec, "bcp", "ms-8", 3)
    assert again.timeline.to_dict() == result.timeline.to_dict()


def test_report_gains_events_and_counters(telemetry_case):
    """MetricsReport carries the kernel event count and the raw
    hot-counter snapshot (live diagnostics; never in artifact rows)."""
    _spec, result = telemetry_case
    report = result.report
    assert report.events_processed > 0
    assert report.counters.get("net.wifi.bytes", 0.0) > 0.0
    assert "region0.sink_outputs" in report.counters
    # The artifact row schema is untouched.
    from repro.scenarios.runner import case_to_dict

    row = case_to_dict(result)
    assert "events_processed" not in row
    assert "counters" not in row


def test_monitor_detaches_cleanly():
    """finish() removes every tap: regions, trace observer, and the
    sampler (idempotently)."""
    from repro.scenarios.runner import build_system
    from repro.telemetry import QoSMonitor

    spec = _quick_spec()
    system = build_system(spec, "bcp", "ms-8", 3)
    monitor = QoSMonitor(system.sim, system.trace, interval_s=10.0)
    system.attach_telemetry(monitor)
    monitor.start()
    system.start()
    system.run(50.0)
    monitor.finish()
    monitor.finish()  # idempotent
    assert all(r.telemetry is None for r in system.regions)
    n = len(monitor.snapshots)
    system.run(100.0)
    assert len(monitor.snapshots) == n  # sampler cancelled


def test_on_snapshot_callback_streams(telemetry_case):
    spec, _result = telemetry_case
    seen = []
    run_case(spec, "bcp", "ms-8", 3, on_snapshot=seen.append)
    assert len(seen) == 30
    assert seen[0].time == pytest.approx(10.0)


def test_monitor_rejects_bad_interval():
    from repro.sim.monitor import Trace
    from repro.telemetry import QoSMonitor

    with pytest.raises(ValueError):
        QoSMonitor(Simulator(), Trace(), interval_s=0.0)


def test_call_every_fires_and_cancels():
    sim = Simulator()
    hits = []
    cancel = sim.call_every(1.0, lambda: hits.append(sim.now))
    sim.run(until=3.5)
    assert hits == [1.0, 2.0, 3.0]
    cancel()
    sim.run(until=10.0)
    assert hits == [1.0, 2.0, 3.0]


def test_call_every_rejects_bad_interval():
    with pytest.raises(ValueError):
        Simulator().call_every(0.0, lambda: None)


def test_events_processed_is_current_inside_call_every():
    """The run loop bumps the kernel-event counter per event, so a
    sampler reading it mid-run sees the count so far, not a stale one."""
    sim = Simulator()

    def ticker(sim):
        for _ in range(100):
            yield sim.timeout(0.5)

    sim.process(ticker(sim))
    seen = []
    cancel = sim.call_every(10.0, lambda: seen.append(sim.events_processed))
    sim.run(until=30.0)
    cancel()
    # At t=10: init, the 19 ticks before it, and the sample itself (it
    # was queued before the t=10 tick).  Each later window adds 20 ticks
    # and one sample; the t=30 sample loses its tie to the stopper.
    assert seen == [21, 42]
