"""API-contract rules: firing and non-firing fixtures per rule."""

import textwrap

from repro.analysis import lint_source


def findings(source, rule, relpath="repro/scenarios/fixture.py"):
    source = textwrap.dedent(source)
    return [f for f in lint_source(source, relpath) if f.rule == rule]


# -- raw-loss-poke --------------------------------------------------------

def test_raw_loss_poke_fires_on_internal_attrs():
    hits = findings(
        """
        def rig(cell):
            cell._uniform_p = 0.5
            cell._loss[(1, 2)] = 0.1
            return cell._uniform_loss_p()
        """, "raw-loss-poke")
    assert len(hits) == 3


def test_raw_loss_poke_quiet_for_set_loss_and_inside_wifi():
    assert findings(
        """
        def rig(cell):
            cell.set_loss(0.5)
        """, "raw-loss-poke") == []
    assert findings(
        """
        def rig(self):
            self._uniform_p = 0.5
        """, "raw-loss-poke", relpath="repro/net/wifi.py") == []


# -- missing-slots --------------------------------------------------------

def test_missing_slots_fires_on_slotted_base_subclass():
    hits = findings(
        """
        class Event:
            __slots__ = ("sim", "_value")

        class Flaky(Event):
            pass
        """, "missing-slots")
    assert len(hits) == 1
    assert "Flaky" in hits[0].message


def test_missing_slots_fires_on_known_base_without_local_definition():
    hits = findings(
        """
        class MyTimeout(Timeout):
            def __init__(self, sim):
                super().__init__(sim, 0.0)
        """, "missing-slots")
    assert len(hits) == 1


def test_missing_slots_fires_on_hot_path_init_attrs():
    hits = findings(
        """
        class Box:
            def __init__(self, x):
                self.x = x
        """, "missing-slots", relpath="repro/sim/events.py")
    assert len(hits) == 1


def test_missing_slots_quiet_with_empty_slots_or_off_hot_path():
    assert findings(
        """
        class Event:
            __slots__ = ("sim",)

        class Fine(Event):
            __slots__ = ()
        """, "missing-slots") == []
    # Plain classes off the hot path don't need slots.
    assert findings(
        """
        class Box:
            def __init__(self, x):
                self.x = x
        """, "missing-slots") == []


def test_missing_slots_quiet_for_dataclasses_and_exceptions():
    assert findings(
        """
        from dataclasses import dataclass

        @dataclass
        class Row:
            x: int = 0

        class BoxError(ValueError):
            def __init__(self, x):
                super().__init__(x)
                self.x = x
        """, "missing-slots", relpath="repro/sim/events.py") == []


# -- default-key-emit -----------------------------------------------------

def test_default_key_emit_fires_when_optional_field_not_filtered():
    hits = findings(
        """
        import dataclasses
        from dataclasses import dataclass
        from typing import Optional

        @dataclass
        class Spec:
            name: str = "x"
            extra: Optional[int] = None

            def to_dict(self):
                return dataclasses.asdict(self)
        """, "default-key-emit")
    assert len(hits) == 1
    assert "extra" in hits[0].message


def test_default_key_emit_quiet_when_field_is_deleted_or_guarded():
    assert findings(
        """
        import dataclasses
        from dataclasses import dataclass
        from typing import Optional

        @dataclass
        class Spec:
            name: str = "x"
            extra: Optional[int] = None

            def to_dict(self):
                d = dataclasses.asdict(self)
                if self.extra is None:
                    del d["extra"]
                return d
        """, "default-key-emit") == []


def test_default_key_emit_quiet_without_asdict_or_optional_fields():
    assert findings(
        """
        import dataclasses
        from dataclasses import dataclass

        @dataclass
        class Spec:
            name: str = "x"

            def to_dict(self):
                return dataclasses.asdict(self)
        """, "default-key-emit") == []
