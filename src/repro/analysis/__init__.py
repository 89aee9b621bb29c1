"""Static analysis: the two lint rules the golden tests cannot stand in for.

The byte-identity contract — every artifact identical across serial/
parallel/resumed execution — is pinned behaviourally: tier-1 runs the
``GUARDED`` goldens under fixed ``PYTHONHASHSEED``s, so hash-order,
unseeded-RNG, ``id()``-order and artifact-drift bugs fail a test the
moment they change a byte.  ``python -m repro lint src/`` keeps only
the rules whose bug class changes timing or scheduling *without*
changing a row, where the goldens stay green.  Each rule earned its
place against a bug planted in ``src/`` that it catches and tier-1
misses (README "Static analysis" has the full ledger, including the
rules it deleted).

Rule catalog
------------
===================  ==============================================
rule                 rationale
===================  ==============================================
``wall-clock``       ``time.time()``/``datetime.now()`` leak the host
                     clock; intervals want ``perf_counter()``.  Plant:
                     the ``verify/fuzz.py`` budget on ``time.time()``
``observer-purity``  Trace observer callbacks (QoSMonitor,
                     InvariantHarness) must not call scheduler/RNG
                     APIs.  Plant: the telemetry checkpoint handler
                     calling ``sim.call_in``
===================  ==============================================

Spec checks (``repro lint path/to/spec.json``): ``spec-invalid``,
``spec-late-event`` (event at/after ``duration_s`` never fires, reusing
``late_events()``), ``spec-unknown-app``, ``spec-unknown-scheme``,
``spec-noncanonical-key`` (default-valued keys that change digests).

Slot discipline is a runtime check, not a lint rule:
``tests/test_slots.py`` imports every module and fails on any class that
regains the per-instance ``__dict__`` its slotted base gave up.
"""

from repro.analysis.core import RULES, Finding, lint_file, lint_paths, lint_source
from repro.analysis.speclint import SPEC_RULES, lint_spec_file

__all__ = [
    "Finding",
    "RULES",
    "SPEC_RULES",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_spec_file",
]
