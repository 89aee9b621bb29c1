"""Copy-on-write operator snapshots with structural sharing.

The eager-copy snapshot story (``arr.copy()`` per operator per version)
charges every checkpoint the full state size in *host* memory and wall
time, even though between two checkpoints most state never changes —
EdgeML's partition weights are constant for the whole run, yet every
version used to hold its own copy.  This module replaces the copies
with cheap immutable views:

**The snapshot protocol.**  ``Operator.snapshot()`` returns *frozen*
state: numpy arrays marked read-only (no copy — the operator adopts the
frozen array and only copies when it next mutates, via
:func:`writable`), scalars, and fresh shallow containers.  Everything a
snapshot references is immutable from the holder's point of view, so
:class:`~repro.checkpoint.store.CheckpointStore`, phone storage, and
in-flight broadcasts can all retain the same object.
``Operator.restore()`` must accept frozen state and must not mutate it
(adopt arrays via :func:`adopt_array`; the next in-place write pays the
one copy).

The three helpers operators use:

* :func:`snap_attr` — freeze-and-share one array attribute (the
  snapshot side of CoW).
* :func:`writable` — un-share before an in-place write (the write side
  of CoW; no-op while the array is unshared).
* :func:`adopt_array` — adopt a frozen array on restore without a copy.

**Historical record.**  ``EAGER_SNAPSHOT_PEAK_KB`` in
``tests/checkpoint/test_snapshots.py`` pins the peak memory of the
eager-copy semantics this module replaced; it is the number the
copy-on-write saving is checked against.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

# -- the CoW triple ----------------------------------------------------------
def freeze_array(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only in place and return it (O(1), no copy)."""
    if arr.flags.writeable:
        arr.flags.writeable = False
    return arr


def writable(arr: np.ndarray) -> np.ndarray:
    """The copy-on-write step: a writable array with ``arr``'s contents.

    Returns ``arr`` itself while it is unshared (still writable); pays
    the one copy only when a snapshot froze it.  Operators call this
    immediately before any in-place mutation of CoW-managed state.
    """
    return arr if arr.flags.writeable else arr.copy()


def adopt_array(value: Any, dtype: Optional[Any] = None) -> np.ndarray:
    """Restore-side adoption: reuse a frozen array without copying.

    A read-only ndarray of the right dtype is shared as-is (the next
    in-place write CoW-copies it, so the snapshot it came from stays
    intact).  Anything else — lists from JSON, writable arrays another
    holder might mutate — is materialized into a fresh array, exactly
    like the historical ``np.array(value)`` restore.
    """
    if (
        isinstance(value, np.ndarray)
        and not value.flags.writeable
        and (dtype is None or value.dtype == np.dtype(dtype))
    ):
        return value
    return np.array(value, dtype=dtype)


def snap_attr(obj: Any, name: str) -> np.ndarray:
    """Snapshot one array attribute of ``obj`` under the CoW protocol.

    Freezes the attribute in place and returns the shareable array.
    """
    return freeze_array(getattr(obj, name))


# -- whole-state freezing -----------------------------------------------------
def freeze_state(obj: Any) -> Any:
    """Recursively freeze a state object into its shareable snapshot form.

    ndarray leaves are frozen in place; containers
    are rebuilt fresh — so the operator mutating its own dicts/lists
    afterwards never reaches into the snapshot — with their types
    preserved (a tuple restores as a tuple, a list as a list); scalars
    and other leaves pass through.  The result is safe to retain
    indefinitely: every holder treats it as immutable.
    """
    if isinstance(obj, np.ndarray):
        return freeze_array(obj)
    if isinstance(obj, dict):
        return {k: freeze_state(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return tuple(freeze_state(v) for v in obj)
    if isinstance(obj, list):
        return [freeze_state(v) for v in obj]
    return obj


def thaw_state(obj: Any) -> Any:
    """Restore-side counterpart of :func:`freeze_state`.

    Containers are rebuilt fresh (type-preserving, so restored state
    compares equal to what was snapshotted); frozen arrays are adopted
    as-is (CoW pays the copy only if the adopter mutates).
    """
    if isinstance(obj, dict):
        return {k: thaw_state(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return tuple(thaw_state(v) for v in obj)
    if isinstance(obj, list):
        return [thaw_state(v) for v in obj]
    return obj
