"""Fleet-scale acceptance gates.

These measure the fleet store's two headline claims directly:

* the vectorized battery sweep is >= 10x the per-object loop in
  events/s at n_phones = 10k, and
* peak traced memory per phone *falls* as the population grows (the
  fixed simulator/graph/trace cost amortizes; the fleet arrays add only
  ~100 B/phone), under an absolute ceiling.

* a 16k-phone ms-8 case, whose broadcast waves reach every idle
  member, stays under a ceiling only reception state packed to one bit
  per (receiver, block) meets.

Thresholds are deliberately loose versus measured numbers (~41x speed,
~1.3 KB/phone at 16k, ~65 MiB for ms-8) so only a real regression — a
fallback to the scalar path, an accidental per-phone object
resurrection, a byte per bitmap bit — trips them.

The batched-broadcast claim is held here by nothing that reads a clock:
``tests/checkpoint/test_broadcast_matrix.py`` pins it as work counts (RNG
calls per row block, no ``reduceat`` on single-fragment rounds) and as
peak traced memory of one round and of one whole wave.  Its wall-clock
form lives in the perf tier, ``tests/perf/wallclock_gates.py``, which
tier-1 does not collect.
"""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from repro.device.fleet import Fleet
from repro.device.phone import Phone
from repro.net.topology import Position
from repro.scenarios import EventDirector, get
from repro.scenarios.runner import build_system
from repro.sim.core import Simulator

N_PHONES, TICKS = 10_000, 20


def _battery_events_per_s(tick, ticks: int) -> float:
    """Run ``tick`` once per 5 s of simulated time, ``ticks`` times;
    returns phone-battery updates per wall second."""
    sim = Simulator()

    def loop():
        for _ in range(ticks):
            yield sim.timeout(5.0)
            tick()

    sim.process(loop())
    t0 = time.perf_counter()
    sim.run()
    return N_PHONES * ticks / (time.perf_counter() - t0)


def test_fleet_battery_sweep_is_10x_object_loop():
    pos = Position(0.0, 0.0)
    phones = [Phone(f"p{i}", pos) for i in range(N_PHONES)]
    fleet = Fleet()
    for i in range(N_PHONES):
        fleet.create_phone(f"p{i}", pos)
    indices = np.arange(N_PHONES, dtype=np.int64)

    def object_tick():  # the Region._battery_loop object path
        for phone in phones:
            if phone.alive:
                phone.battery.drain_idle(5.0)
                assert not (phone.battery.is_dead or phone.battery.is_critical)

    def fleet_tick():  # one numpy sweep per tick regardless of n
        dead, critical = fleet.sweep_battery(indices, 5.0)
        assert not (dead.size or critical.size)

    obj = _battery_events_per_s(object_tick, TICKS)
    # More ticks so the fleet's wall time stays measurable.
    vec = _battery_events_per_s(fleet_tick, 100 * TICKS)
    ratio = vec / obj
    assert ratio >= 10.0, (
        f"fleet sweep only {ratio:.1f}x the object loop "
        f"({vec:.3g} vs {obj:.3g} ev/s)"
    )


def _peak_kb(n: int, scheme: str = "base") -> float:
    """Peak traced memory of one quick paper-fig8 case at ``n`` phones on
    the fleet backend, build + run.  The curve runs ``base``, which holds
    no checkpoint state, so it measures device-state scaling alone; ms-8
    adds the broadcast waves that replicate every checkpoint onto every
    idle member, and has its own ceiling below."""
    spec = dataclasses.replace(
        get("paper-fig8").quick(), device_backend="fleet").scaled_phones(n)
    tracemalloc.start()
    try:
        system = build_system(spec, "bcp", scheme, 3)
        director = EventDirector(system, spec)
        director.install()
        system.start()
        director.schedule()
        system.run(spec.duration_s)
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def rss_curve():
    # Warm-up: the first tracemalloc window otherwise also counts
    # lazy-import allocations, inflating the smallest-n peak.
    _peak_kb(250)
    return {n: _peak_kb(n) for n in (1_000, 16_000)}


def test_fleet_rss_curve_is_sublinear(rss_curve):
    # Sub-linear: 16x the phones must cost well under 16x the bytes,
    # i.e. bytes/phone strictly falls across the span.
    small, large = (rss_curve[n] * 1024.0 / n for n in (1_000, 16_000))
    assert large < small, (
        f"bytes/phone rose from {small:.0f} to {large:.0f} "
        f"across a 16x population span"
    )


def test_fleet_rss_absolute_ceiling(rss_curve):
    peak_mb = rss_curve[16_000] / 1024.0
    # Measured ~21 MB for a whole 16k-phone scenario case; 64 MB means
    # something started allocating per phone again.
    assert peak_mb < 64.0, f"16k-phone scenario peaked at {peak_mb:.0f} MB"


def test_fleet_ms8_broadcast_waves_stay_one_bit_per_block():
    """ms-8 at 16k phones broadcasts each checkpoint to ~16k receivers.
    With reception state packed to one bit per (receiver, block) and the
    loss drawn in 1 MiB blocks the case peaks near 65 MiB traced; a byte
    per (receiver, block) read 531 MiB."""
    peak_mb = _peak_kb(16_000, "ms-8") / 1024.0
    assert peak_mb < 110.0, f"16k-phone ms-8 case peaked at {peak_mb:.0f} MB"
