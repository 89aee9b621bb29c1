"""Counterpart to ``seeded_violation.py``: equivalent code written the
sanctioned way; must lint clean under every rule.
"""

import time


def elapsed(t0: float) -> float:
    return time.perf_counter() - t0


class Watcher:
    def start(self) -> None:
        self.trace.add_observer(self.observe)
        self.sim.call_every(1.0, self.flush)

    def observe(self, rec) -> None:
        self.rows.append(rec.category)

    def flush(self) -> None:
        pass
