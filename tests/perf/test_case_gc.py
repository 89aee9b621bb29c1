"""Per-case garbage collection: the start-up heap is frozen once.

``run_case`` ends with a full collection, because a finished case is
one large reference cycle.  The first case a process runs first moves
the start-up heap (the objects the imports left) into the permanent
generation, so each later collection walks only what its case made.
Two cheaper-looking variants leak, and each test below fails on at
least one of them:

* ``gc.freeze()``/``gc.unfreeze()`` around every case: garbage that is
  already in generation 2 when a case starts is frozen with it and never
  collected;
* ``gc.disable()`` during the case plus a young-only ``gc.collect(0)``:
  whole cases stay alive.
"""

import gc
import weakref

import pytest

from repro.core.node import NodeRuntime
from repro.scenarios import get
from repro.scenarios.runner import build_system, case_to_dict, run_case
from repro.sim.core import Simulator


@pytest.fixture
def quick_fig8():
    return get("paper-fig8").quick()


def _tracked() -> int:
    """Every object the collector tracks, frozen ones included."""
    return len(gc.get_objects()) + gc.get_freeze_count()


def test_first_case_freezes_the_heap_once(quick_fig8):
    run_case(quick_fig8, "bcp", "base", 3)
    frozen = gc.get_freeze_count()
    assert frozen > 0
    run_case(quick_fig8, "bcp", "ms-8", 3)
    assert gc.get_freeze_count() == frozen


def test_garbage_between_cases_is_collected_by_the_next_case(quick_fig8):
    class Cycle:
        pass

    run_case(quick_fig8, "bcp", "base", 3)
    gc.disable()
    try:
        junk = Cycle()
        junk.self = junk
        gc.collect(0)  # out of the youngest generation, as a caller's own work would move it
        ref = weakref.ref(junk)
        del junk
        run_case(quick_fig8, "bcp", "base", 3)
        assert ref() is None
    finally:
        gc.enable()


def test_quick_fig8_passes_do_not_grow_the_heap(quick_fig8):
    cases = list(quick_fig8.matrix.cases())

    def one_pass():
        rows = [case_to_dict(run_case(quick_fig8, app, scheme, seed))
                for app, scheme, seed in cases]
        assert len(rows) == len(cases)

    one_pass()  # warm: lazy imports, registries, render caches
    after_first = _tracked()
    one_pass()
    one_pass()
    assert _tracked() <= after_first


def test_no_runtime_or_simulator_outlives_its_case(quick_fig8, monkeypatch):
    alive = []
    for cls in (NodeRuntime, Simulator):
        init = cls.__init__

        def recording_init(self, *args, _init=init, **kwargs):
            _init(self, *args, **kwargs)
            alive.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", recording_init)
    gc.disable()  # only run_case's own collection may free them
    try:
        for scheme in ("base", "ms-8"):
            run_case(quick_fig8, "bcp", scheme, 3)
            assert alive and [ref for ref in alive if ref() is not None] == []
    finally:
        gc.enable()


def test_operator_context_is_one_object_stamped_with_now(quick_fig8):
    system = build_system(quick_fig8, "bcp", "base", 3)
    region = system.regions[0]
    seen = []
    for graph in region.graphs:
        for op in graph.operators():
            process = op.process

            def recording_process(tup, ctx, _process=process):
                seen.append((ctx, ctx.now, system.sim.now))
                return _process(tup, ctx)

            op.process = recording_process
    system.run(60.0)
    assert len(seen) > 100
    assert len({id(ctx) for ctx, _now, _sim_now in seen}) == 1
    assert seen[0][0] is region.operator_context()
    assert all(now == sim_now for _ctx, now, sim_now in seen)
    assert len({now for _ctx, now, _sim_now in seen}) > 1
