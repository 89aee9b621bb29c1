"""Spans, counts and per-layer self time, recorded from outside the program.

Nothing under ``src/`` knows this file exists.  A :class:`Tracer` wraps
the *public* calls a pass makes into the simulator (``run_case``,
``build_system``, ``EventDirector.install/schedule``,
``MobiStreamsSystem.start/run/metrics``, ``case_to_dict``,
``dumps_artifact``, ``run_sweep``, ``ResultSet.load/to_json``) by
swapping the module/class attribute for a timing wrapper while a traced
pass runs, and puts the originals back afterwards.  Timed (end-to-end)
passes never run with a tracer installed.

A span is ``{id, name, start, end, parent, pass}``: ``parent`` is the id
of the span that was open when this one started (the span that caused
it), ``pass`` groups the spans of one unit of work.  Spans stay in
memory until :meth:`Tracer.dump`.

Layer self time comes from a ``cProfile.Profile`` the harness enables
around a whole traced pass: :func:`layer_self_times` buckets every
function's ``tottime`` by the package under ``src/repro/`` its file
lives in, and hands the ``tottime`` of foreign functions (builtins,
numpy, stdlib) to the layer of whoever called them.  Time spent blocked
on a lock is waiting, not work: it is kept out of the split and
returned beside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pstats
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PACKAGE_DIR = os.path.join(ROOT, "src", "repro") + os.sep

#: Layers that get their own ``<layer>.self_s`` / ``<layer>.share``;
#: every other file (``util/``, ``telemetry/``, ``verify/``, ``cli.py``,
#: the stdlib import machinery, this harness) lands in ``other`` so the
#: shares always sum to one.
LAYERS = ("sim", "core", "net", "checkpoint", "baselines", "device",
          "apps", "scenarios", "results")
OTHER = "other"
#: The profile entry under which a thread sits blocked: how the parent
#: of a ``--jobs 2`` sweep waits for its pool (``IMapIterator.next`` ->
#: ``Condition.wait``).  Charged to no layer.
BLOCKED = "<method 'acquire' of '_thread.lock' objects>"

#: (module, attribute path, span name).  ``run_case``/``case_to_dict``
#: are listed once per module that holds its own reference to them.
_PATCH_POINTS = (
    ("repro.scenarios.runner", "run_case", "run_case"),
    ("repro.scenarios.executor", "run_case", "run_case"),
    ("repro.scenarios.runner", "build_system", "build_system"),
    ("repro.scenarios.runner", "EventDirector.install", "director.install"),
    ("repro.scenarios.runner", "EventDirector.schedule", "director.schedule"),
    ("repro.core.system", "MobiStreamsSystem.start", "system.start"),
    ("repro.core.system", "MobiStreamsSystem.run", "system.run"),
    ("repro.core.system", "MobiStreamsSystem.metrics", "system.metrics"),
    ("repro.scenarios.runner", "case_to_dict", "case_to_dict"),
    ("repro.scenarios.executor", "case_to_dict", "case_to_dict"),
    ("repro.results.io", "dumps_artifact", "dumps_artifact"),
    ("repro.scenarios.executor", "run_sweep", "run_sweep"),
    ("repro.scenarios", "run_sweep", "run_sweep"),
    ("repro.results.resultset", "ResultSet.load", "resultset.load"),
    ("repro.results.resultset", "ResultSet.to_json", "resultset.to_json"),
)

#: (module, attribute path, count name): public entry points that are
#: generator functions.  A span cannot time them (the body runs later,
#: resumed by the kernel) and the profiler counts one call per resume,
#: so the tracer counts invocations instead.
_COUNT_POINTS = (
    ("repro.net.wifi", "WifiCell.udp_broadcast_round", "net.broadcast_round_calls"),
    ("repro.net.wifi", "WifiCell.udp_unicast", "net.unicast_calls"),
    ("repro.net.wifi", "WifiCell.tcp_unicast", "net.unicast_calls"),
)

#: ``MetricsReport.counters`` keys (or key suffixes, for the per-region
#: ones) summed into each count metric.
_REPORT_COUNTERS = {
    "core.source_inputs": ".source_inputs",
    "core.sink_outputs": ".sink_outputs",
    "net.wifi_bytes": "net.wifi.bytes",
    "net.cellular_bytes": "net.cellular.bytes",
    "checkpoint.completed": "ckpt.completed",
    "checkpoint.ft_network_bytes": "ft.network_bytes",
    "checkpoint.preserved_bytes": "ft.preserved_bytes",
    "device.failures_injected": "failures.injected",
}


class Tracer:
    """In-memory span and count recorder for traced passes."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = {}
        self.pass_id: Optional[str] = None
        self._open: List[int] = []
        self._epoch = time.perf_counter()
        self._originals: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.spans), "name": name, "pass": self.pass_id,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self._epoch, "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter() - self._epoch

    def begin_pass(self, pass_id: str) -> None:
        """Start a new unit of work: later spans carry ``pass_id`` and
        the counts start again from zero."""
        self.pass_id = pass_id
        self.counts = {}

    def durations(self, name: str, pass_id: str) -> List[float]:
        """Durations (s) of the finished spans called ``name`` in one pass."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["pass"] == pass_id
                and s["end"] is not None]

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- instrumentation -----------------------------------------------------
    def _wrap(self, func: Callable, name: str) -> Callable:
        on_result = self._count_report if name == "system.metrics" else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count(self, func: Callable, name: str) -> Callable:
        @functools.wraps(func)
        def counted(*args, **kwargs):
            self.add(name, 1)
            return func(*args, **kwargs)

        return counted

    def _count_report(self, report: Any) -> None:
        """Counts read off the ``MetricsReport`` each case produces."""
        self.add("sim.events", report.events_processed)
        self.add("checkpoint.recoveries", report.recoveries)
        for metric, key in _REPORT_COUNTERS.items():
            for counter, value in report.counters.items():
                if counter == key or (key.startswith(".") and counter.endswith(key)):
                    self.add(metric, value)

    def install(self) -> None:
        """Swap every patch point for its span-recording (or counting)
        wrapper."""
        points = [(p, self._wrap) for p in _PATCH_POINTS] \
            + [(p, self._count) for p in _COUNT_POINTS]
        for (module_name, path, name), wrap in points:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            # Classes may hand back a bound classmethod: wrap the raw
            # descriptor's function and re-wrap it the same way.
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(wrap(raw.__func__, name))
            else:
                wrapped = wrap(raw, name)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output --------------------------------------------------------------
    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write every span (and ``extra``) as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "perf_counter seconds since tracer start",
                       "spans": self.spans, **(extra or {})}, fh, indent=1)
            fh.write("\n")


# -- cProfile -> per-layer self time ------------------------------------------
def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, None for foreign code."""
    if not filename.startswith(PACKAGE_DIR):
        return None
    head = filename[len(PACKAGE_DIR):].split(os.sep, 1)[0]
    return head if head in LAYERS else OTHER


def profile_stats(profile: Any) -> Dict[Any, Any]:
    """The pstats table of a finished ``cProfile.Profile``:
    ``{(file, line, name): (cc, ncalls, tottime, cumtime, callers)}``."""
    return pstats.Stats(profile).stats  # type: ignore[attr-defined]


def layer_self_times(stats: Dict[Any, Any]) -> Tuple[Dict[str, float], float]:
    """Seconds of ``tottime`` per layer (plus ``other``), and the
    seconds spent blocked on a lock, which belong to no layer.

    A function in ``src/repro/<layer>/`` charges its own ``tottime`` to
    that layer.  A foreign function's ``tottime`` is split over its
    callers exactly as the pstats callers table records it; a foreign
    *caller* passes its part on to its own callers in proportion to the
    cumulative time each gave it, so ``np.stack`` called from
    ``apps/vision.py`` is charged to ``apps`` however many numpy frames
    sit in between.  Foreign call chains that reach no repro frame
    (interpreter start-up, imports, the harness) are ``other``.
    """
    owner = {func: layer_of(func[0]) for func in stats}
    mixes: Dict[Any, Dict[str, float]] = {}

    def mix(func: Any, seen: frozenset) -> Dict[str, float]:
        """Layer distribution of whoever is responsible for ``func``."""
        if owner.get(func) is not None:
            return {owner[func]: 1.0}
        if func in mixes:
            return mixes[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[3] for edge in callers.values())
        if func in seen or not callers or total <= 0:
            return {OTHER: 1.0}
        out: Dict[str, float] = {}
        for caller, edge in callers.items():
            for layer, part in mix(caller, seen | {func}).items():
                out[layer] = out.get(layer, 0.0) + part * edge[3] / total
        mixes[func] = out
        return out

    times = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    blocked = 0.0
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        if func[2] == BLOCKED:
            blocked += tottime
            continue
        if owner[func] is not None:
            times[owner[func]] += tottime
            continue
        charged = 0.0
        for caller, edge in callers.items():
            charged += edge[2]
            for layer, part in mix(caller, frozenset((func,))).items():
                times[layer] += part * edge[2]
        times[OTHER] += tottime - charged  # root frames have no caller edge
    return times, blocked


def profile_ncalls(stats: Dict[Any, Any], layer: str, names: Tuple[str, ...]) -> int:
    """Total ``ncalls`` of the functions called one of ``names`` in
    files of ``layer``.  Only meaningful for plain functions: the
    profiler counts a generator function once per resume."""
    return sum(entry[1] for func, entry in stats.items()
               if func[2] in names and layer_of(func[0]) == layer)
