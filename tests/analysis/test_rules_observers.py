"""Observer-purity rule: the callback closure must stay observe-only."""

import pathlib
import textwrap

from repro.analysis import lint_source

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def findings(source, relpath="repro/telemetry/fixture.py"):
    source = textwrap.dedent(source)
    return [f for f in lint_source(source, relpath)
            if f.rule == "observer-purity"]


def test_fires_when_registered_callback_calls_scheduler():
    hits = findings(
        """
        class Monitor:
            def start(self):
                self.trace.add_observer(self.observe)

            def observe(self, rec):
                self.sim.call_in(1.0, self._poke)
        """)
    assert len(hits) == 1
    assert "call_in" in hits[0].message


def test_fires_transitively_through_helpers():
    hits = findings(
        """
        class Monitor:
            def start(self):
                self.trace.add_observer(self.observe)

            def observe(self, rec):
                self._handle(rec)

            def _handle(self, rec):
                rec.event.trigger(None)
        """)
    assert len(hits) == 1
    assert "_handle" in hits[0].message


def test_fires_through_handler_dispatch_table():
    hits = findings(
        """
        class Monitor:
            def __init__(self):
                self._handlers = {"tick": self._on_tick}

            def start(self):
                self.trace.add_observer(self.observe, categories=self._handlers)

            def observe(self, rec):
                fn = self._handlers.get(rec.category)
                if fn is not None:
                    fn(rec)

            def _on_tick(self, rec):
                self.rng.stream("obs")
        """)
    assert len(hits) == 1
    assert "RNG" in hits[0].message


def test_fires_on_rng_module_call_in_callback():
    hits = findings(
        """
        import random

        class Monitor:
            def start(self):
                self.trace.add_observer(self.observe)

            def observe(self, rec):
                return random.random()
        """)
    assert len(hits) == 1


def test_quiet_for_pure_observer_and_scheduling_registrar():
    # start() may schedule its own flush timer: it is the registrar,
    # not the callback, so scheduler calls there are legitimate.
    hits = findings(
        """
        class Monitor:
            def __init__(self):
                self.rows = []

            def start(self):
                self.trace.add_observer(self.observe)
                self.sim.call_every(1.0, self.flush)

            def observe(self, rec):
                self.rows.append(rec.category)

            def flush(self):
                pass
        """)
    assert hits == []


def test_quiet_for_non_observer_class_calling_scheduler():
    hits = findings(
        """
        class Driver:
            def kick(self):
                self.sim.call_in(0.0, self.kick)
        """)
    assert hits == []


def test_fires_on_the_telemetry_call_in_plant():
    """The rule's ledger plant: the live telemetry monitor's checkpoint
    handler schedules a no-op event.  Rows stay byte-identical, so the
    goldens pass; only this rule sees the observer touch the scheduler."""
    relpath = "repro/telemetry/monitor.py"
    source = (SRC / relpath).read_text(encoding="utf-8")
    anchor = "            st.checkpoints_committed += 1\n"
    assert source.count(anchor) == 1
    assert findings(source, relpath) == []
    planted = source.replace(
        anchor, anchor + "        self.sim.call_in(0.0, lambda: None)\n")
    hits = findings(planted, relpath)
    assert len(hits) == 1
    assert "QoSMonitor._on_checkpoint_complete()" in hits[0].message
    assert hits[0].code == "self.sim.call_in(0.0, lambda: None)"
