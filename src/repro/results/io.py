"""Canonical artifact serialization: the bytes of the public contract.

Every sweep artifact in this repo — buffered, streamed, or resumed — is
produced by (or byte-identical to) :func:`dumps_artifact`: key-sorted
JSON, indented for small sweeps and separators-only at
:data:`COMPACT_THRESHOLD` cases.  It is the *format* half of the
results contract, so it lives with the results API.

Nothing here imports simulation code: the format must be loadable (and
testable) without building a system.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Sweeps at or above this many cases default to compact JSON: pretty-
#: printing a huge artifact burns real time and disk for no reader.
COMPACT_THRESHOLD = 100


def dumps_artifact(result: Dict[str, Any], compact: Optional[bool] = None) -> str:
    """Canonical serialization (sorted keys, fixed layout) so serial,
    parallel, resumed, and streamed sweeps of the same scenario compare
    byte-for-byte.

    ``compact=None`` keeps the human-readable indented layout for small
    sweeps and switches to separators-only JSON at
    :data:`COMPACT_THRESHOLD` cases; both layouts stay canonical
    (key-sorted), just differently whitespaced.
    """
    if compact is None:
        compact = result.get("n_cases", 0) >= COMPACT_THRESHOLD
    if compact:
        return json.dumps(result, sort_keys=True, separators=(",", ":"))
    return json.dumps(result, sort_keys=True, indent=2)


def load_artifact(path: str) -> Dict[str, Any]:
    """Parse one artifact file into its raw dict form."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
