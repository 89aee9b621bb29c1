"""Static analysis: project-aware lint rules with a baseline gate.

The byte-identity contract — every artifact identical across serial/
parallel/distributed/resumed execution — has been broken twice by the
same bug classes (str-hash-order voting in PR 2, a wall-clock epoch
anchor in PR 8).  This package checks those classes *statically*:
``python -m repro lint src/`` walks the ASTs with 9 project-specific
rules and fails on any finding not in the committed baseline
(``lint-baseline.json``, kept empty).

Rule catalog
------------
====================  ===============  ==============================================
rule                  family           rationale
====================  ===============  ==============================================
``set-iteration``     determinism      set iteration order follows the hash seed; in
                                       serialization/voting paths it flips artifact
                                       bytes between runs — wrap in ``sorted()``
``unseeded-rng``      determinism      global/unseeded ``random``/``np.random`` calls
                                       break seed→artifact purity; only ``sim/rng.py``
                                       owns module-level RNG state
``wall-clock``        determinism      ``time.time()``/``datetime.now()`` leak the
                                       host clock; intervals want ``perf_counter()``
``id-order``          determinism      sorting/comparing by ``id()`` orders by memory
                                       address, different every process
``raw-loss-poke``     api-contract     writing ``_loss``/``_uniform_p``/
                                       ``_uniform_loss_p`` skips ``set_loss()``
                                       validation and loss-model bookkeeping
``missing-slots``     api-contract     a subclass of a slotted class (or any hot-path
                                       class) without ``__slots__`` silently regains
                                       a per-instance ``__dict__``
``default-key-emit``  api-contract     ``to_dict()`` must omit None-default optional
                                       fields or old specs change digest
``observer-purity``   observer-purity  Trace observer callbacks (QoSMonitor,
                                       InvariantHarness) must not call scheduler/RNG
                                       APIs — observers observe
``lock-discipline``   lock-discipline  in ``fabric/``, attributes written under
                                       ``self._lock`` must only be touched while
                                       holding it — a static race detector
====================  ===============  ==============================================

Spec checks (``repro lint path/to/spec.json``): ``spec-invalid``,
``spec-late-event`` (event at/after ``duration_s`` never fires, reusing
``late_events()``), ``spec-unknown-app``, ``spec-unknown-scheme``,
``spec-noncanonical-key`` (default-valued keys that change digests).

Workflow
--------
Findings are suppressed per line with ``# repro-lint: disable=RULE``
(comma-separated IDs, or ``all``).  The committed baseline makes the CI
gate "no *new* findings": ``--write-baseline`` records current debt,
``--no-baseline`` shows everything, ``--rule R`` narrows a run.  Rules
register through :func:`repro.analysis.core.register_rule`, the same
plugin idiom as the app/scheme registries.
"""

from repro.analysis import rules  # noqa: F401  (populates the registry)
from repro.analysis.baseline import (
    default_baseline_path,
    diff_against,
    load_baseline,
    write_baseline,
)
from repro.analysis.core import (
    Finding,
    Rule,
    all_rules,
    get_rule,
    lint_file,
    lint_paths,
    lint_source,
    register_rule,
    rule_names,
)
from repro.analysis.speclint import SPEC_RULES, lint_spec_dict, lint_spec_file

__all__ = [
    "Finding",
    "Rule",
    "SPEC_RULES",
    "all_rules",
    "default_baseline_path",
    "diff_against",
    "get_rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_spec_dict",
    "lint_spec_file",
    "load_baseline",
    "register_rule",
    "rule_names",
    "write_baseline",
]
