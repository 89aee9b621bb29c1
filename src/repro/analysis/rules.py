"""Imports every rule module so the registry is fully populated.

Import this (not the individual ``rules_*`` modules) before calling
:func:`repro.analysis.core.all_rules`; the CLI and tests both do.
"""

from repro.analysis import rules_contracts  # noqa: F401
from repro.analysis import rules_determinism  # noqa: F401
from repro.analysis import rules_observers  # noqa: F401
