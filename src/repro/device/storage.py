"""Flash storage: a bounded key/value byte store per phone.

Checkpoint versions, source-preservation buffers, and operator code all
land in flash (the paper: "each node reads the state data from local
storage" during parallel restoration).  We track *sizes*, not contents —
payloads ride along uninterpreted.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.util.units import GB


class StorageFull(Exception):
    """Raised when a write would exceed the device's flash capacity."""


class FlashStorage:
    """Named byte-buckets with a capacity cap (default 16 GB, iPhone 3GS)."""

    def __init__(self, capacity_bytes: int = 16 * GB) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._objects: Dict[Any, Tuple[int, Any]] = {}
        self._used = 0

    @property
    def used_bytes(self) -> int:
        """Total bytes currently stored."""
        return self._used

    @property
    def free_bytes(self) -> int:
        """Remaining capacity."""
        return self.capacity_bytes - self._used

    def write(self, key: Any, size: int, payload: Any = None) -> None:
        """Store (or overwrite) ``key`` with ``size`` bytes of data."""
        if size < 0:
            raise ValueError("size must be >= 0")
        old = self._objects.get(key)
        delta = size - (old[0] if old else 0)
        if self._used + delta > self.capacity_bytes:
            raise StorageFull(
                f"write of {size} B would exceed capacity "
                f"({self._used}/{self.capacity_bytes} used)"
            )
        self._objects[key] = (size, payload)
        self._used += delta

    def read(self, key: Any) -> Any:
        """Payload stored under ``key`` (KeyError if absent)."""
        return self._objects[key][1]

    def delete(self, key: Any) -> None:
        """Remove ``key`` (silently idempotent)."""
        old = self._objects.pop(key, None)
        if old is not None:
            self._used -= old[0]

    def keys(self):
        """All stored keys."""
        return list(self._objects)

    def wipe(self) -> None:
        """Erase everything (an idle node leaving deletes its copies)."""
        self._objects.clear()
        self._used = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FlashStorage {self._used}/{self.capacity_bytes} B>"
