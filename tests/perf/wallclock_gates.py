"""Perf tier: wall-clock ratio gates, best of k.

Not collected by the tier-1 run (the file name does not match
``test_*.py``) because a single timing on a busy host says more about
the host than about the code; tier-1 holds the same claims as
deterministic work counts.  CI runs this file explicitly::

    PYTHONPATH=src python -m pytest tests/perf/wallclock_gates.py -q
"""

import dataclasses
import gc
import os
import time

import numpy as np
import pytest

from repro.net.loss import BernoulliLoss
from repro.net.wifi import WifiCell
from repro.scenarios import MatrixSpec, TelemetrySpec, get, run_sweep, runner
from repro.scenarios.runner import run_case
from repro.scenarios.spec import ScenarioSpec
from repro.sim.core import Simulator
from repro.sim.monitor import Trace
from repro.sim.rng import RngRegistry

BEST_OF = 3
#: Noisy-box insurance for the overhead gates: a gate passes if *any*
#: attempt fits its bound.  A real per-tuple regression shifts every
#: attempt, so retries do not mask one; they only strip one-off spikes.
ATTEMPTS = 4


def _broadcast_wall(uniform: bool) -> float:
    """Wall seconds of three UDP broadcast rounds of 64 blocks over a
    500-member cell."""
    sim = Simulator()
    cell = WifiCell(sim, RngRegistry(0), name="bench", trace=Trace())
    for i in range(500):
        cell.join(f"m{i}", lambda msg: None)
    if not uniform:
        # Re-model the *sender's* loss: uniformity breaks (forcing the
        # per-member fallback loop) while every receiver keeps the same
        # BernoulliLoss(0.08), so both arms do identical receiver work.
        cell.set_loss("m0", BernoulliLoss(0.5))

    indices = np.arange(64)

    def driver():
        for _ in range(3):
            yield from cell.udp_broadcast_round("m0", indices, 1024)

    sim.process(driver())
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0


def test_batched_broadcast_beats_member_loop():
    batched = min(_broadcast_wall(True) for _ in range(BEST_OF))
    loop = min(_broadcast_wall(False) for _ in range(BEST_OF))
    # Same receivers, same loss model values — only the draw strategy
    # differs.  2x is conservative; measured is larger.
    assert loop >= 2.0 * batched


def _wall(fn) -> float:
    # A collection landing inside one arm but not the other swamps a
    # few-percent signal; measure with the collector parked.
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _overhead_gate(off, on, bound: float, what: str) -> None:
    """Fail unless some attempt's min-of-3 interleaved ``on``/``off``
    wall ratio is within ``1 + bound``."""
    fractions = []
    for _ in range(ATTEMPTS):
        offs, ons = [], []
        for _ in range(BEST_OF):
            offs.append(_wall(off))
            ons.append(_wall(on))
        frac = min(ons) / min(offs) - 1.0
        fractions.append(frac)
        if frac <= bound:
            return
    pytest.fail(f"{what} overhead exceeded {bound:.0%} in all {ATTEMPTS} "
                f"attempts: {[f'{f:.1%}' for f in fractions]}")


def test_telemetry_enabled_overhead_within_bound():
    """Enabling the QoS monitor (~30 samples) costs at most 5 % of a
    full-length run; measured steady-state overhead is ~0 %."""
    spec = get("flash-crowd")
    spec_on = dataclasses.replace(
        spec, telemetry=TelemetrySpec(interval_s=spec.duration_s / 30.0))
    run_case(spec.quick(), "bcp", "ms-8", 3)  # warm-up
    _overhead_gate(lambda: run_case(spec, "bcp", "ms-8", 3),
                   lambda: run_case(spec_on, "bcp", "ms-8", 3),
                   0.05, "telemetry")


def test_verify_armed_overhead_within_bound():
    """Arming the invariant harness costs at most 10 %: it subscribes to
    per-tuple categories, a few dict ops per tuple."""
    spec = get("paper-fig8").quick(120.0)

    def armed():
        assert run_case(spec, "bcp", "ms-8", 3, verify=True).violations == ()

    armed()  # warm-up
    _overhead_gate(lambda: run_case(spec, "bcp", "ms-8", 3), armed,
                   0.10, "armed-harness")


class _TimedGC:
    """Stands in for the ``gc`` module inside the runner: times each
    ``collect`` and, with ``freeze=False``, keeps the runner from
    freezing the heap."""

    def __init__(self, freeze: bool) -> None:
        self._freeze = freeze
        self.seconds = []

    def get_freeze_count(self) -> int:
        return gc.get_freeze_count() if self._freeze else 1

    def freeze(self) -> None:
        gc.freeze()

    def collect(self, *args) -> int:
        t0 = time.perf_counter()
        n = gc.collect(*args)
        self.seconds.append(time.perf_counter() - t0)
        return n


def _post_case_collect(monkeypatch, spec, freeze: bool) -> float:
    """Seconds of the collection that ends one case."""
    timed = _TimedGC(freeze)
    monkeypatch.setattr(runner, "gc", timed)
    run_case(spec, "bcp", "ms-8", 3)
    return timed.seconds[-1]


def test_frozen_start_up_heap_halves_the_post_case_collection(monkeypatch):
    """The collection that ends a quick paper-fig8 case takes at most
    half as long as the same collection with the start-up heap
    unfrozen; measured ~0.1x."""
    spec = get("paper-fig8").quick()
    run_case(spec, "bcp", "ms-8", 3)  # warm-up; freezes the start-up heap
    frozen, unfrozen = [], []
    for _ in range(BEST_OF):
        frozen.append(_post_case_collect(monkeypatch, spec, freeze=True))
        gc.unfreeze()  # the next frozen arm's run_case freezes it again
        unfrozen.append(_post_case_collect(monkeypatch, spec, freeze=False))
    assert min(frozen) <= 0.5 * min(unfrozen), (frozen, unfrozen)


@pytest.mark.skipif(os.cpu_count() in (None, 1),
                    reason="speedup needs more than one core")
def test_parallel_sweep_is_faster_on_multicore():
    spec = ScenarioSpec(
        name="sweep-t", duration_s=600.0, warmup_s=100.0, idle_per_region=4,
        checkpoint_period_s=60.0,
        matrix=MatrixSpec(apps=("bcp",), schemes=("base", "ms-8"), seeds=(3, 4)),
    )
    serial = _wall(lambda: run_sweep(spec, jobs=1))
    par = _wall(lambda: run_sweep(spec, jobs=min(4, os.cpu_count())))
    assert par < serial
