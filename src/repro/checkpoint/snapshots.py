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

**Chunks.**  Large frozen arrays additionally get content-addressed
interning through :class:`ChunkStore`: two snapshots whose bytes are
equal collapse to one stored chunk even when they are distinct objects
(e.g. a restored-then-unmodified model re-checkpointed after a copy).
Chunks are held by weak reference, so pruned versions free their bytes
as usual.

**Historical record.**  The committed
``benchmarks/baselines/pre_pr/BENCH_checkpoint.json`` holds the peak
memory of the eager-copy semantics this module replaced; it is the
number the copy-on-write saving is pinned against.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Any, Dict, Optional, Tuple

import numpy as np

#: Arrays at or above this many bytes are content-hashed and interned
#: by :class:`ChunkStore`; smaller ones are cheaper to keep than to hash.
MIN_CHUNK_BYTES = 4096

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


# -- content-addressed chunks -------------------------------------------------
def chunk_digest(arr: np.ndarray) -> Tuple[str, str, Tuple[int, ...]]:
    """Content key of one array: (blake2b hex, dtype, shape).

    Hashes the buffer in place (no ``tobytes`` copy) — a transient
    multi-MB copy per put would defeat the peak-memory win interning
    exists for.  Non-contiguous arrays (rare in snapshots) pay one
    contiguous staging copy.
    """
    data = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
    h = hashlib.blake2b(data.data, digest_size=16)
    return (h.hexdigest(), str(arr.dtype), arr.shape)


class ChunkStore:
    """Content-addressed interning of large frozen arrays.

    ``intern`` maps byte-equal arrays onto one canonical stored chunk,
    so N versions of an unchanged multi-megabyte state cost one buffer
    plus N references.  Chunks are held weakly: once every snapshot
    referencing a chunk is pruned, the bytes are freed.  An id-keyed
    memo skips re-hashing the common case — the *same* frozen object
    re-interned version after version.
    """

    def __init__(self) -> None:
        #: content key -> weakref to the canonical chunk.
        self._by_digest: Dict[Tuple[str, str, Tuple[int, ...]], "weakref.ref"] = {}
        #: id(arr) -> (weakref used to validate the id, canonical chunk ref).
        self._id_memo: Dict[int, Tuple["weakref.ref", "weakref.ref"]] = {}
        self.hits = 0
        self.misses = 0
        self.shared_bytes = 0

    def intern(self, arr: np.ndarray) -> np.ndarray:
        """The canonical chunk equal to ``arr`` (``arr`` itself on a miss).

        Only frozen arrays are internable: collapsing a writable array
        onto a shared canonical chunk would let a later in-place write
        rewrite every snapshot holding it.
        """
        if arr.flags.writeable:
            raise ValueError("only read-only arrays can be interned as chunks")
        memo = self._id_memo.get(id(arr))
        if memo is not None:
            keyed, canonical = memo[0](), memo[1]()
            if keyed is arr and canonical is not None:
                self.hits += 1
                if canonical is not arr:
                    self.shared_bytes += arr.nbytes
                return canonical
        key = chunk_digest(arr)
        ref = self._by_digest.get(key)
        existing = ref() if ref is not None else None
        if existing is not None:
            self.hits += 1
            if existing is not arr:
                self.shared_bytes += arr.nbytes
            self._remember(arr, existing)
            return existing
        self.misses += 1
        self._by_digest[key] = weakref.ref(arr, self._digest_reaper(key))
        self._remember(arr, arr)
        return arr

    def _remember(self, arr: np.ndarray, canonical: np.ndarray) -> None:
        """Memoize id(arr) -> canonical, self-evicting when ``arr`` dies
        (long runs churn one new array per mutated checkpoint — without
        eviction the memo would grow for the store's whole lifetime)."""
        self._id_memo[id(arr)] = (
            weakref.ref(arr, self._id_reaper(id(arr))),
            weakref.ref(canonical),
        )

    def _digest_reaper(self, key):
        def reap(_ref, *, _key=key, _store=weakref.ref(self)) -> None:
            store = _store()
            # Guard against delayed (gc-cycle) callbacks: only evict if
            # the slot still holds *this* dead ref, not a live
            # replacement interned under the same content key since.
            if store is not None and store._by_digest.get(_key) is _ref:
                store._by_digest.pop(_key, None)
        return reap

    def _id_reaper(self, key: int):
        def reap(_ref, *, _key=key, _store=weakref.ref(self)) -> None:
            store = _store()
            if store is None:
                return
            entry = store._id_memo.get(_key)
            # CPython reuses ids: only evict if the entry still belongs
            # to the dead array, not to a newer one that took its id.
            if entry is not None and entry[0]() is None:
                store._id_memo.pop(_key, None)
        return reap

    def intern_state(self, obj: Any) -> Any:
        """Walk a frozen snapshot, interning large read-only array leaves.

        Anything that is not a big frozen array passes through untouched;
        container identity is preserved unless a leaf was replaced.
        """
        if isinstance(obj, np.ndarray):
            if not obj.flags.writeable and obj.nbytes >= MIN_CHUNK_BYTES:
                return self.intern(obj)
            return obj
        if isinstance(obj, dict):
            out = {k: self.intern_state(v) for k, v in obj.items()}
            return out if any(out[k] is not obj[k] for k in out) else obj
        if isinstance(obj, (tuple, list)):
            out = type(obj)(self.intern_state(v) for v in obj)
            return out if any(a is not b for a, b in zip(out, obj)) else obj
        return obj

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ChunkStore chunks={len(self._by_digest)} hits={self.hits} "
            f"misses={self.misses} shared_bytes={self.shared_bytes}>"
        )
