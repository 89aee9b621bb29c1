"""The invariant-harness overhead claim as work counts: arming
verification on a scenario case changes neither its row nor the kernel
work it does, and a disarmed run must not touch any verify machinery at
all.  The wall-clock form of the gate lives in ``wallclock_gates.py``
(perf tier)."""

from repro.scenarios import get
from repro.scenarios.runner import build_system, case_to_dict, run_case


def test_armed_run_does_the_same_kernel_work():
    spec = get("paper-fig8").quick(120.0)
    off = run_case(spec, "bcp", "ms-8", 3)
    on = run_case(spec, "bcp", "ms-8", 3, verify=True)
    assert on.violations == ()
    assert case_to_dict(on) == case_to_dict(off)
    assert on.report.events_processed == off.report.events_processed


def test_disarmed_run_touches_no_verify_machinery():
    """A plain case must register no trace observer and carry no
    violations tuple content."""
    spec = get("paper-fig8").quick(120.0)
    system = build_system(spec, "bcp", "ms-8", 3)
    assert system.trace._observers == []
    result = run_case(spec, "bcp", "ms-8", 3)
    assert result.violations == ()
    assert result.timeline is None
