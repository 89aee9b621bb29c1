"""Deliberately broken fixture: the CI seeded-violation smoke lints this
file and greps for the expected rule IDs.  Never imported by anything.
"""

import time


def stamp() -> float:
    # wall-clock: host clock leaks into output.
    return time.time()


class Watcher:
    def start(self) -> None:
        self.trace.add_observer(self.observe)

    def observe(self, rec) -> None:
        # observer-purity: an observer schedules simulator events.
        self.sim.call_in(0.0, self.start)
