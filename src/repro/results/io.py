"""Canonical artifact serialization: the bytes of the public contract.

Every artifact this repo writes — sweep artifacts, resume-cache
entries, telemetry timelines — goes through :func:`write_artifact`,
whose bytes are :func:`dumps_artifact` plus a trailing newline:
key-sorted JSON, indented by two spaces.  One layout and one writer
keep serial, ``--jobs N`` and resumed runs byte-identical.  It is the
*format* half of the results contract, so it lives with the results
API.

Nothing here imports simulation code: the format must be loadable (and
testable) without building a system.
"""

from __future__ import annotations

import json
import os
from typing import Any


def dumps_artifact(obj: Any) -> str:
    """Canonical serialization (sorted keys, ``indent=2``) so serial,
    parallel and resumed sweeps of the same scenario compare
    byte-for-byte."""
    return json.dumps(obj, sort_keys=True, indent=2)


def write_artifact(path: str, obj: Any) -> None:
    """Write :func:`dumps_artifact` of ``obj`` plus a newline to ``path``.

    The bytes go to ``path + ".tmp"`` first and are promoted with
    ``os.replace``, so a killed or failed writer never leaves a torn
    file, and an artifact already at ``path`` survives until the new
    one is complete.
    """
    text = dumps_artifact(obj) + "\n"
    dirname = os.path.dirname(path)
    if dirname:
        os.makedirs(dirname, exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_artifact(path: str) -> Any:
    """Parse one artifact file into its raw JSON form."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
