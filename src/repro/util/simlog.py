"""The package-wide ``repro`` logger; configure it with :mod:`logging`."""

from __future__ import annotations

import logging

_LOGGER_NAME = "repro"


def get_logger() -> logging.Logger:
    """The package-wide logger (``repro``)."""
    return logging.getLogger(_LOGGER_NAME)
