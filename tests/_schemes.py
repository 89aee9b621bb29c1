"""Test-only schemes, armed by patching the runner's scheme table.

* ``broken-replay`` — :class:`BrokenPreservationScheme` is MobiStreams
  with one deliberate defect: completed checkpoints prune the
  preservation store one segment too far, so catch-up replay after a
  crash misses the input between the last cut and the crash (silent
  tuple loss; exactly the class of bug Section III-B's preservation
  rule exists to prevent).  An armed run over any post-checkpoint crash
  raises a ``replay-gap`` violation, which proves the invariant harness
  still catches things.
* ``chaos-kill`` — :class:`WorkerKillingScheme` SIGKILLs the process
  executing the case at attach time: in a local pool that is a pool
  child, and the executor's pid watchdog notices.
* ``chaos-error`` — :class:`ErroringScheme` raises a plain exception at
  attach, exercising the per-case error capture and retry path without
  hurting any process.

:func:`extra_schemes` replaces :func:`repro.scenarios.runner.scheme_factories`
for the duration of a ``with`` block.  Forked pool workers inherit the
patch, so a sweep with ``jobs > 1`` must start its pool inside the block
(shut the warm pool down first) and only works under the ``fork`` start
method.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

from repro.baselines.base import NoFaultTolerance
from repro.checkpoint import MobiStreamsScheme
from repro.scenarios import runner

BROKEN_REPLAY = "broken-replay"
CHAOS_KILL = "chaos-kill"
CHAOS_ERROR = "chaos-error"


@contextmanager
def extra_schemes(extras: Dict[str, Callable]) -> Iterator[None]:
    """Add ``extras`` (label -> zero-argument factory) after the
    built-in schemes while the block runs."""
    builtin = runner.scheme_factories

    def patched(checkpoint_period_s: float = 300.0) -> Dict[str, Callable]:
        factories = builtin(checkpoint_period_s)
        factories.update(extras)
        return factories

    runner.scheme_factories = patched
    try:
        yield
    finally:
        runner.scheme_factories = builtin


class BrokenPreservationScheme(MobiStreamsScheme):
    """MobiStreams with an off-by-one preservation prune."""

    def __init__(self) -> None:
        super().__init__(label=BROKEN_REPLAY)

    def _on_checkpoint_complete(self, version: int) -> None:
        super()._on_checkpoint_complete(version)
        # The defect: also drop the segment recorded *since* this cut —
        # input the next recovery will need but can no longer replay.
        self.preservation.on_checkpoint_complete(version + 1)


@contextmanager
def broken_replay_scheme() -> Iterator[str]:
    """Arm ``broken-replay`` while the block runs; yields its label."""
    with extra_schemes({BROKEN_REPLAY: BrokenPreservationScheme}):
        yield BROKEN_REPLAY


def _claim_kill(kill_dir: str, limit: int) -> bool:
    """Atomically claim one unit of the cross-process kill budget.

    Marker files named ``kill-<n>`` under ``kill_dir`` are created with
    ``O_CREAT | O_EXCL``: each name can be claimed exactly once even
    when several processes race, so ``limit=1`` kills exactly one
    worker no matter how many are running.
    """
    os.makedirs(kill_dir, exist_ok=True)
    for n in range(limit):
        path = os.path.join(kill_dir, f"kill-{n}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))
        return True
    return False


class WorkerKillingScheme(NoFaultTolerance):
    """``base`` that SIGKILLs its executing process on attach while the
    kill budget lasts, and behaves exactly like ``base`` after."""

    name = CHAOS_KILL

    def __init__(self, kill_dir: Optional[str], limit: int) -> None:
        super().__init__()
        self.kill_dir = kill_dir
        self.limit = limit

    def attach(self, region) -> None:
        if self.kill_dir is not None and _claim_kill(self.kill_dir, self.limit):
            os.kill(os.getpid(), signal.SIGKILL)
        super().attach(region)


class ErroringScheme(NoFaultTolerance):
    """``base`` that raises on attach."""

    name = CHAOS_ERROR

    def attach(self, region) -> None:
        raise RuntimeError("chaos-error: injected scheme failure")


@contextmanager
def chaos_schemes(kill_dir: Optional[str] = None,
                  kill_limit: int = 1) -> Iterator[None]:
    """Arm ``chaos-kill`` and ``chaos-error`` while the block runs.

    ``chaos-kill`` kills at most ``kill_limit`` processes, counted by
    marker files under ``kill_dir`` so the budget spans processes; with
    no ``kill_dir`` it never kills.
    """
    with extra_schemes({
        CHAOS_KILL: lambda: WorkerKillingScheme(kill_dir, kill_limit),
        CHAOS_ERROR: ErroringScheme,
    }):
        yield
