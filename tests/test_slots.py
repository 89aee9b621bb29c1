"""Slotted classes stay slotted.

A class that declares ``__slots__`` gives up the per-instance
``__dict__``; the simulator allocates events, tuples and tokens by the
million, so that saving is the point. Python silently undoes it in two
ways, and this test checks both on the real classes, after importing
every ``repro`` module:

* a subclass of a slotted ``repro`` class that does not declare
  ``__slots__`` itself (even ``()``) regains ``__dict__`` for every
  instance;
* a class that blocks ``__setattr__`` to stay immutable (a value type
  used as a dict key) is only immutable without ``__dict__``: with one,
  ``vars(obj)[name] = value`` rewrites it behind its hash.

``type.__dictoffset__`` is non-zero exactly when instances carry a
``__dict__``, so the check needs no list of classes or modules.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import repro


def _repro_classes():
    classes = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        classes.update(obj for obj in vars(module).values()
                       if inspect.isclass(obj) and obj.__module__.startswith("repro."))
    return sorted(classes, key=lambda c: (c.__module__, c.__qualname__))


def _slotted(cls):
    return "__slots__" in vars(cls) and cls.__dictoffset__ == 0


def _why_dict_is_wrong(cls):
    bases = [b.__qualname__ for b in cls.__mro__[1:]
             if b.__module__.startswith("repro.") and _slotted(b)]
    if bases:
        return f"subclasses slotted {bases[0]} without declaring __slots__"
    if "__setattr__" in vars(cls) and not dataclasses.is_dataclass(cls):
        return "blocks __setattr__ but instances keep a writable __dict__"
    return None


def test_slotted_classes_keep_no_instance_dict():
    classes = _repro_classes()
    assert len(classes) > 100  # every module imported, not just the package
    offenders = [f"{cls.__module__}.{cls.__qualname__}: {why}"
                 for cls in classes if cls.__dictoffset__ != 0
                 for why in [_why_dict_is_wrong(cls)] if why]
    assert offenders == []
