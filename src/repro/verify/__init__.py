"""Runtime verification: recovery invariants + the scenario fuzzer.

This package turns the paper's *correctness* claims — commit-token
checkpointing recovers from burst failures without losing or duplicating
tuples — into machine-checked invariants, and hunts for violations with
a property-based scenario fuzzer.

Armed vs disarmed
-----------------
Disarmed (the default everywhere): no harness object is built, no trace
observer is registered, artifacts are byte-identical to pre-verify code.
Armed (``run_case(..., verify=True)``, ``scenario run/sweep --verify``,
``repro fuzz``): an :class:`InvariantHarness` taps the shared trace
through the observer API — observe-only, zero RNG — and collects
structured :class:`Violation` records.  Violations ride *beside* the
artifact (CLI stderr / the returned envelope), never inside a row, so
even an armed sweep's artifact bytes are unchanged.

Delivery contract per scheme
----------------------------
===========  ==================  =====================================================
scheme       contract            checked invariants
===========  ==================  =====================================================
``base``     ``none``            (none — loss and duplication are expected)
``rep-k``    ``duplication-free``  no sink result published twice
``local``    ``bounded-loss``    duplication-free + monotone versions + progress
``dist-n``   ``bounded-loss``    duplication-free + monotone versions + progress
``ms-n``     ``exactly-once``    all of the above + token safety + replay covers
                                 the full gap between the restored MRC and the crash
===========  ==================  =====================================================

Fuzz → shrink workflow
----------------------
``repro fuzz gen --seed S`` writes the seed's generated specs (byte-
deterministic); ``repro fuzz run --seed S`` executes them with
invariants armed and — on a violation — delta-debug shrinks the failing
spec (:func:`repro.verify.shrink.shrink`) into ``<name>.min.json``, a
minimal regression scenario runnable via
``repro scenario run <file> --verify``; ``repro fuzz shrink FILE``
re-shrinks any saved failing spec.
"""

from repro.verify.contracts import CONTRACTS, DeliveryContract, contract_for
from repro.verify.fuzz import (
    FuzzResult,
    fuzz,
    generate_spec,
    generate_specs,
    load_spec,
    run_spec,
    write_specs,
)
from repro.verify.harness import InvariantHarness, Violation
from repro.verify.shrink import shrink

__all__ = [
    "CONTRACTS",
    "DeliveryContract",
    "FuzzResult",
    "InvariantHarness",
    "Violation",
    "contract_for",
    "fuzz",
    "generate_spec",
    "generate_specs",
    "load_spec",
    "run_spec",
    "shrink",
    "write_specs",
]
