"""Project knowledge the rules key on.

Everything path- or name-shaped that makes the linter *this repo's*
linter lives here: which modules are serialization paths, where the
seeded-RNG discipline is enforced, which classes are slotted hot-path
primitives, what the scheduler API surface looks like.  Rules import
from this module instead of hard-coding strings so the map stays in one
place as the tree grows.
"""

from __future__ import annotations

from typing import Iterable

#: Module-path prefixes whose output feeds digests, goldens, or votes —
#: any unordered iteration here can flip bytes between runs (the PR 2
#: SignalGuru voting bug lived in exactly such a path).
SERIALIZATION_PATHS = (
    "repro/apps/",
    "repro/checkpoint/",
    "repro/results/",
    "repro/scenarios/",
    "repro/verify/",
)

#: The one module allowed to touch module-level RNG state: it *owns*
#: seeding (`RngRegistry.stream()` derives per-purpose streams).
RNG_EXEMPT_FILES = ("repro/sim/rng.py",)

#: Modules on the per-tuple hot path where an accidental ``__dict__``
#: costs ~56 bytes per instance times millions of events.
HOT_PATH_MODULES = (
    "repro/sim/events.py",
    "repro/core/tuples.py",
)

#: Slotted base classes defined across the tree: a subclass that fails
#: to declare ``__slots__`` (even ``()``) silently regains ``__dict__``.
SLOTTED_BASES = frozenset({
    "Event",
    "Timeout",
    "Callback",
    "Condition",
    "Process",
    "Request",
    "StreamTuple",
    "Token",
    "TraceRecord",
})

#: The simulator's scheduling/mutation surface: calling any of these
#: from a Trace-observer callback breaks the observes-only contract
#: (observers must not perturb the event stream they watch).
SCHEDULER_API = frozenset({
    "call_at",
    "call_every",
    "call_in",
    "fail",
    "interrupt",
    "process",
    "schedule",
    "succeed",
    "timeout",
    "trigger",
})

#: The module that owns WifiCell internals; everyone else goes through
#: ``set_loss()`` / ``member_ids()``.
WIFI_MODULE = "repro/net/wifi.py"

#: WifiCell loss-model internals (poking these skips validation and the
#: uniform/per-link bookkeeping that keeps loss draws reproducible).
LOSS_INTERNALS = frozenset({"_loss", "_uniform_p", "_uniform_loss_p"})


def in_paths(relpath: str, prefixes: Iterable[str]) -> bool:
    """True when ``relpath`` (module path) falls under any prefix."""
    return any(relpath.startswith(p) for p in prefixes)
