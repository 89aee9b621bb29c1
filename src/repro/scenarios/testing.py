"""Engineered failures for exercising the sweep executor's recovery paths.

Two test-only schemes ride the runtime scheme-extension registry
(:func:`repro.scenarios.runner.register_scheme`), mirroring
:mod:`repro.verify.testing`:

* ``chaos-kill`` — :class:`WorkerKillingScheme` SIGKILLs the *process
  executing the case* at :meth:`attach` time: in a local pool that is a
  pool child, and the executor's pid watchdog notices.  The kill budget
  lives in the filesystem so it spans processes and sweeps:
  ``REPRO_KILL_DIR`` points at a marker directory and
  ``REPRO_KILL_LIMIT`` caps how many kills fire (``-1`` = unlimited).
  Budget exhausted → the scheme behaves exactly like ``base``.

* ``chaos-error`` — :class:`ErroringScheme` raises a plain exception at
  attach, exercising the structured per-case error capture/retry path
  without hurting any process.

The schemes are armed in worker processes only when
``REPRO_ENABLE_TEST_SCHEMES`` is set in the environment — the executor
pool initializer calls :func:`ensure_registered` under that flag, so a
spec whose matrix names ``chaos-kill`` validates in every pool worker.
Importing this module alone has no side effects (tests import its
constants freely); in-process tests use the :func:`chaos_schemes`
context manager.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from typing import Iterator

from repro.baselines.base import NoFaultTolerance
from repro.scenarios.runner import register_scheme, unregister_scheme
from repro.util.simlog import get_logger

log = get_logger()

#: Scheme labels the fixtures register under.
CHAOS_KILL = "chaos-kill"
CHAOS_ERROR = "chaos-error"

#: Environment knobs for the kill scheme.
KILL_DIR_ENV = "REPRO_KILL_DIR"
KILL_LIMIT_ENV = "REPRO_KILL_LIMIT"
ENABLE_ENV = "REPRO_ENABLE_TEST_SCHEMES"


def _claim_kill() -> bool:
    """Atomically claim one unit of the cross-process kill budget.

    Marker files named ``kill-<n>`` under ``REPRO_KILL_DIR`` are created
    with ``O_CREAT | O_EXCL`` — each name can be claimed exactly once
    even when several processes race, so ``REPRO_KILL_LIMIT=1`` kills
    exactly one worker no matter how many are running.
    """
    kill_dir = os.environ.get(KILL_DIR_ENV)
    if not kill_dir:
        return False  # disarmed: no budget directory, no kills
    limit = int(os.environ.get(KILL_LIMIT_ENV, "1"))
    os.makedirs(kill_dir, exist_ok=True)
    n = 0
    while limit < 0 or n < limit:
        path = os.path.join(kill_dir, f"kill-{n}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            n += 1
            continue
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))
        return True
    return False


class WorkerKillingScheme(NoFaultTolerance):
    """``base`` that SIGKILLs its executing process on attach (test-only)."""

    name = CHAOS_KILL

    def attach(self, region) -> None:
        if _claim_kill():
            log.warning(
                "chaos-kill: SIGKILLing pid %d (budget claimed)", os.getpid())
            os.kill(os.getpid(), signal.SIGKILL)
        super().attach(region)


class ErroringScheme(NoFaultTolerance):
    """``base`` that raises on attach (test-only error-capture probe)."""

    name = CHAOS_ERROR

    def attach(self, region) -> None:
        raise RuntimeError("chaos-error: injected scheme failure")


def ensure_registered() -> None:
    """Idempotently register both chaos schemes."""
    for label, factory in ((CHAOS_KILL, WorkerKillingScheme),
                           (CHAOS_ERROR, ErroringScheme)):
        try:
            register_scheme(label, factory)
        except ValueError:
            pass  # already registered (re-import, long-lived process)


@contextmanager
def chaos_schemes() -> Iterator[None]:
    """Register the chaos schemes for the duration of a test."""
    ensure_registered()
    try:
        yield
    finally:
        unregister_scheme(CHAOS_KILL)
        unregister_scheme(CHAOS_ERROR)
