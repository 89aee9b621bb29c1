"""Structured trace recording and counters.

Every subsystem reports into a shared :class:`Trace`: checkpoint rounds,
failures, recoveries, tuple completions, bytes on each network.  The bench
harness then derives throughput/latency/data-volume metrics purely from the
trace, so measurement code never reaches into subsystem internals.

Storage is indexed per category: ``select``/``count_of``/``last`` touch
only the requested category's records (binary-searching the time window
when records arrived in time order) instead of scanning the whole run —
metric derivation is O(matches), not O(all records x queries).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.util.simlog import get_logger


class TraceRecord:
    """One trace entry: virtual timestamp, category, free-form payload."""

    __slots__ = ("time", "category", "data")

    def __init__(
        self, time: float, category: str, data: Optional[Dict[str, Any]] = None
    ) -> None:
        self.time = time
        self.category = category
        self.data: Dict[str, Any] = {} if data is None else data

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TraceRecord:
            return NotImplemented
        return (
            self.time == other.time
            and self.category == other.category
            and self.data == other.data
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TraceRecord(time={self.time!r}, category={self.category!r}, data={self.data!r})"


class _CategoryIndex:
    """Per-category record store: parallel time list for window bisects."""

    __slots__ = ("records", "times", "sorted", "category")

    def __init__(self, category: str = "") -> None:
        self.category = category
        self.records: List[TraceRecord] = []
        self.times: List[float] = []
        #: Virtual time is monotone in practice; if a caller ever records
        #: out of order we fall back to a linear scan for this category.
        self.sorted = True

    def append(self, rec: TraceRecord) -> None:
        times = self.times
        if times and rec.time < times[-1]:
            if self.sorted:
                # Once per category: losing the bisect path silently would
                # hide an O(records) query cost *and* the likely caller
                # bug (recording with a stale timestamp).
                get_logger().warning(
                    "trace category %r received an out-of-order record "
                    "(%.6f after %.6f); windowed queries on it fall back "
                    "to linear scans", self.category, rec.time, times[-1],
                )
            self.sorted = False
        times.append(rec.time)
        self.records.append(rec)

    def window(self, since: float, until: float) -> Iterator[TraceRecord]:
        if self.sorted:
            lo = bisect_left(self.times, since) if since != float("-inf") else 0
            hi = (
                bisect_left(self.times, until)
                if until != float("inf")
                else len(self.records)
            )
            return iter(self.records[lo:hi])
        return (r for r in self.records if since <= r.time < until)

    def count(self, since: float, until: float) -> int:
        if self.sorted:
            lo = bisect_left(self.times, since) if since != float("-inf") else 0
            hi = (
                bisect_left(self.times, until)
                if until != float("inf")
                else len(self.records)
            )
            return hi - lo
        return sum(1 for r in self.records if since <= r.time < until)


class Counter:
    """A named monotonically-increasing numeric counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Trace:
    """Append-only trace plus a namespace of counters."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        self.counters: Dict[str, Counter] = {}
        self._by_category: Dict[str, _CategoryIndex] = {}
        #: Live observers called with each appended record (telemetry).
        #: Kept off the hot path: recording without observers costs one
        #: truthiness check on this list.  Observers registered with a
        #: category filter live in ``_scoped`` and are only called for
        #: records of those categories — per-tuple categories make
        #: unconditional fan-out too expensive for filtered consumers.
        self._observers: List[Callable[[TraceRecord], None]] = []
        self._global_observers: List[Callable[[TraceRecord], None]] = []
        self._scoped: Dict[str, List[Callable[[TraceRecord], None]]] = {}

    def record(self, time: float, category: str, **data: Any) -> None:
        """Append a record."""
        rec = TraceRecord(time, category, data)
        self.records.append(rec)
        index = self._by_category.get(category)
        if index is None:
            index = _CategoryIndex(category)
            self._by_category[category] = index
        index.append(rec)
        if self._observers:
            for observer in self._global_observers:
                observer(rec)
            scoped = self._scoped.get(category)
            if scoped is not None:
                for observer in scoped:
                    observer(rec)

    def add_observer(
        self,
        fn: Callable[[TraceRecord], None],
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        """Stream future records to ``fn`` (read-only tap; called
        synchronously inside :meth:`record`, so keep it cheap).  With
        ``categories``, ``fn`` only sees records of those categories —
        the dispatch cost for everything else is one dict lookup instead
        of a call.
        """
        if fn in self._observers:
            raise ValueError("observer already registered")
        self._observers.append(fn)
        if categories is None:
            self._global_observers.append(fn)
        else:
            for category in categories:
                self._scoped.setdefault(category, []).append(fn)

    def remove_observer(self, fn: Callable[[TraceRecord], None]) -> None:
        """Detach an observer (unknown observers are ignored)."""
        try:
            self._observers.remove(fn)
        except ValueError:
            return
        try:
            self._global_observers.remove(fn)
        except ValueError:
            pass
        for category in list(self._scoped):
            observers = self._scoped[category]
            if fn in observers:
                observers.remove(fn)
                if not observers:
                    del self._scoped[category]

    def counter(self, name: str) -> Counter:
        """Return (creating if needed) the counter called ``name``.

        Hot paths should resolve the handle once and call ``add`` on it,
        instead of paying this dict lookup per increment.
        """
        c = self.counters.get(name)
        if c is None:
            c = Counter(name)
            self.counters[name] = c
        return c

    def count(self, name: str, amount: float = 1.0) -> None:
        """Shorthand for ``trace.counter(name).add(amount)``."""
        self.counter(name).add(amount)

    def value(self, name: str, default: float = 0.0) -> float:
        """Current value of counter ``name`` (``default`` if absent)."""
        c = self.counters.get(name)
        return c.value if c is not None else default

    # -- queries ---------------------------------------------------------
    def select(
        self,
        category: str,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> Iterator[TraceRecord]:
        """All records of ``category`` with ``since <= time < until``."""
        index = self._by_category.get(category)
        if index is None:
            return iter(())
        return index.window(since, until)

    def count_of(self, category: str, **time_window: float) -> int:
        """Number of records matching :meth:`select` filters."""
        bad = set(time_window) - {"since", "until"}
        if bad:
            raise TypeError(f"count_of() got unexpected arguments {sorted(bad)}")
        index = self._by_category.get(category)
        if index is None:
            return 0
        return index.count(
            time_window.get("since", float("-inf")),
            time_window.get("until", float("inf")),
        )

    def last(self, category: str) -> Optional[TraceRecord]:
        """Most recently *recorded* entry of ``category``, or None."""
        index = self._by_category.get(category)
        if index is None or not index.records:
            return None
        return index.records[-1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Trace records={len(self.records)} counters={len(self.counters)}>"
