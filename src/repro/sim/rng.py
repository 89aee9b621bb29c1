"""Named, reproducible random-number streams.

Every stochastic component (packet loss, workload generation, failure
injection, ...) draws from its *own* named stream derived from a
single master seed.  This gives two properties the experiments rely on:

1. **Reproducibility** — the same master seed always yields the same run.
2. **Variance isolation** — changing, say, the failure schedule does not
   perturb the packet-loss sequence, so A/B comparisons between fault-
   tolerance schemes see identical channel conditions.

Streams are ``numpy.random.Generator`` instances derived via
``SeedSequence.spawn``-style keying on the stream name, so the mapping
from name to stream is order-independent.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RngRegistry:
    """Factory and cache of named ``numpy.random.Generator`` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        if not isinstance(master_seed, int):
            raise TypeError("master_seed must be an int")
        self.master_seed = master_seed
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (master_seed, name) pair always produces a generator with
        the same initial state, regardless of creation order.
        """
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(key,))
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def names(self):
        """Names of all streams created so far (for diagnostics)."""
        return sorted(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RngRegistry seed={self.master_seed} streams={len(self._streams)}>"
