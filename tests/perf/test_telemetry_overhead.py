"""The telemetry overhead claim as work counts: enabling the QoS monitor
adds the sampler's callbacks to the kernel and nothing else, and a
disabled run must not touch any telemetry machinery at all.  The
wall-clock form of the gate lives in ``wallclock_gates.py`` (perf
tier)."""

import dataclasses

from repro.scenarios import TelemetrySpec, get
from repro.scenarios.runner import build_system, case_to_dict, run_case
from repro.sim.core import Simulator


def test_enabled_run_adds_only_the_sampler_events(monkeypatch):
    spec = get("flash-crowd").quick()
    spec_on = dataclasses.replace(
        spec, telemetry=TelemetrySpec(interval_s=spec.duration_s / 30.0))
    off = run_case(spec, "bcp", "ms-8", 3)

    fired = []
    call_every = Simulator.call_every

    def counting_call_every(sim, interval, fn, *args):
        def counted(*a):
            fired.append(sim.now)
            fn(*a)
        return call_every(sim, interval, counted, *args)

    monkeypatch.setattr(Simulator, "call_every", counting_call_every)
    on = run_case(spec_on, "bcp", "ms-8", 3)

    assert case_to_dict(on) == case_to_dict(off)
    assert len(fired) >= 29
    assert on.report.events_processed - off.report.events_processed == len(fired)


def test_disabled_run_touches_no_telemetry_machinery():
    """A plain case must leave every telemetry hook unarmed (so the hot
    paths pay one is-None/empty-list check only)."""
    spec = get("flash-crowd").quick()
    system = build_system(spec, "bcp", "ms-8", 3)
    assert system.sim.count_inline is False
    assert all(r.telemetry is None for r in system.regions)
    assert system.trace._observers == []
    result = run_case(spec, "bcp", "ms-8", 3)
    assert result.timeline is None
