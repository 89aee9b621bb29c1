"""Wall-clock rule: firing and non-firing fixtures, plus its ledger plant.

The other determinism classes (set iteration, unseeded RNG, ``id()``
order) are pinned behaviourally by the golden tests run under fixed
``PYTHONHASHSEED``s; a wall-clock read can change how far a run gets
without changing a row, so it keeps a static rule.
"""

import pathlib
import textwrap

from repro.analysis import lint_source

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def findings(source, rule, relpath="repro/checkpoint/fixture.py"):
    source = textwrap.dedent(source)
    return [f for f in lint_source(source, relpath) if f.rule == rule]


def test_wall_clock_fires_on_time_time_and_datetime_now():
    hits = findings(
        """
        import time
        from datetime import datetime

        def stamp():
            return time.time(), datetime.now()
        """, "wall-clock")
    assert len(hits) == 2
    assert "perf_counter" in hits[0].message


def test_wall_clock_fires_on_from_import():
    hits = findings(
        """
        from time import time

        def stamp():
            return time()
        """, "wall-clock")
    assert len(hits) == 1


def test_wall_clock_quiet_for_monotonic_clocks():
    hits = findings(
        """
        import time

        def elapsed(t0):
            return time.perf_counter() - t0, time.monotonic()
        """, "wall-clock")
    assert hits == []


def test_wall_clock_fires_on_the_fuzz_budget_plant():
    """The rule's ledger plant: ``fuzz run --budget-s`` measured on the
    host clock.  Every spec still runs the same, so tier-1 passes; an
    NTP step or DST change would cut or stretch the budget."""
    relpath = "repro/verify/fuzz.py"
    source = (SRC / relpath).read_text(encoding="utf-8")
    assert findings(source, "wall-clock", relpath) == []
    assert source.count("time.monotonic()") == 2
    hits = findings(source.replace("time.monotonic()", "time.time()"),
                    "wall-clock", relpath)
    assert [h.code for h in hits] == [
        "t0 = time.time()",
        "if budget_s is not None and time.time() - t0 >= budget_s:",
    ]
