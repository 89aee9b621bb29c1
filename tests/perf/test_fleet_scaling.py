"""Fleet-scale acceptance gates.

These run the ``fleet`` perf-suite case factories directly (not via the
committed baselines, so they cannot drift) and enforce the fleet store's
two headline claims:

* the vectorized battery sweep is >= 10x the per-object loop in
  events/s at n_phones = 10k, and
* peak traced memory per phone *falls* as the population grows (the
  fixed simulator/graph/trace cost amortizes; the fleet arrays add only
  ~100 B/phone), under an absolute ceiling.

Thresholds are deliberately loose versus measured numbers (~41x speed,
~1.3 KB/phone at 16k) so only a real regression — a fallback to the
scalar path, an accidental per-phone object resurrection — trips them.

The batched-broadcast claim is held here by nothing that reads a clock:
``tests/checkpoint/test_broadcast_matrix.py`` pins it as work counts (RNG
calls per row block, no ``reduceat`` on single-fragment rounds, peak
traced memory).  Its wall-clock form lives in the perf tier,
``tests/perf/wallclock_gates.py``, which tier-1 does not collect.
"""

import pytest

from repro.perf.suites import SUITES


def _case(name: str, quick: bool):
    for case_name, factory in SUITES["fleet"]:
        if case_name == name:
            return factory(quick)()
    raise KeyError(name)


def test_fleet_battery_sweep_is_10x_object_loop():
    obj = _case("battery-tick/object", quick=False)
    fleet = _case("battery-tick/fleet", quick=False)
    assert obj["n_phones"] == fleet["n_phones"] == 10_000
    ratio = fleet["events_per_s"] / obj["events_per_s"]
    assert ratio >= 10.0, (
        f"fleet sweep only {ratio:.1f}x the object loop "
        f"({fleet['events_per_s']:.3g} vs {obj['events_per_s']:.3g} ev/s)"
    )


@pytest.fixture(scope="module")
def rss_curve():
    # Warm-up: the first tracemalloc window otherwise also counts
    # lazy-import allocations, inflating the smallest-n peak.
    _case("rss/fleet-n1000", quick=True)
    return {
        n: _case(f"rss/fleet-n{n}", quick=False) for n in (1_000, 16_000)
    }


def test_fleet_rss_curve_is_sublinear(rss_curve):
    small, large = rss_curve[1_000], rss_curve[16_000]
    assert large["n_phones"] == 16 * small["n_phones"]
    # Sub-linear: 16x the phones must cost well under 16x the bytes,
    # i.e. bytes/phone strictly falls across the span.
    assert large["bytes_per_phone"] < small["bytes_per_phone"], (
        f"bytes/phone rose from {small['bytes_per_phone']:.0f} to "
        f"{large['bytes_per_phone']:.0f} across a 16x population span"
    )


def test_fleet_rss_absolute_ceiling(rss_curve):
    peak_mb = rss_curve[16_000]["peak_kb"] / 1024.0
    # Measured ~21 MB for a whole 16k-phone scenario case; 64 MB means
    # something started allocating per phone again.
    assert peak_mb < 64.0, f"16k-phone scenario peaked at {peak_mb:.0f} MB"
