"""Perf tier: wall-clock ratio gates, best of k.

Not collected by the tier-1 run (the file name does not match
``test_*.py``) because a single timing on a busy host says more about
the host than about the code; tier-1 holds the same claims as
deterministic work counts.  CI's fleet-smoke job runs this file
explicitly::

    PYTHONPATH=src python -m pytest tests/perf/wallclock_gates.py -q
"""

from repro.perf.suites import SUITES

BEST_OF = 3


def _best_events_per_s(name: str) -> float:
    run = dict(SUITES["fleet"])[name](True)  # quick mode
    return max(run()["events_per_s"] for _ in range(BEST_OF))


def test_batched_broadcast_beats_member_loop():
    batched = _best_events_per_s("broadcast-round/batched")
    loop = _best_events_per_s("broadcast-round/member-loop")
    # Same receivers, same loss model values — only the draw strategy
    # differs.  2x is conservative; measured is larger.
    assert batched >= 2.0 * loop
