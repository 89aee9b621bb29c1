"""The fabric coordinator: shard a sweep's case matrix over TCP workers.

The coordinator owns one sweep end to end.  It binds a listening socket,
preloads the resume cache exactly like :func:`repro.scenarios.run_sweep`,
enters the un-cached cases into a :class:`~repro.fabric.ledger.CaseLedger`,
and then plays two roles at once:

* **Control plane** (daemon threads): one accept loop plus one handler
  thread per worker connection.  Workers fetch leases, stream back
  result payloads, and heartbeat; a connection that goes silent past
  the heartbeat timeout, drops, or resets releases every lease it held
  — charging a *kill* against each case (two kills = quarantine).

* **Merge loop** (the calling thread): a cursor walks the full matrix
  order and blocks until each index resolves — from the cache, from a
  worker result, or terminally (quarantined/errored).  Rows stream
  into :class:`~repro.scenarios.executor.StreamingSweepWriter` and the
  :class:`~repro.scenarios.executor.CaseCache` in matrix order, which
  is the whole determinism story: serial, ``--jobs N``, and distributed
  sweeps emit byte-identical artifacts because every one of them merges
  through the same ordered writer.

Failure semantics at a glance: connection drop / missed heartbeat →
re-queue with exponential backoff, kill charged; lease deadline passed
with the connection still up → re-queue, no kill, bounded by the
per-case retry budget; case raised inside the executor → retried once
on another lease, then reported in the run report's ``errors``; case
killed its worker twice → ``quarantined``.  Quarantined/errored cases
never hang the merge — the sweep finishes every other case, reports
them in the envelope, and the CLI exits non-zero.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.registry import get_app
from repro.fabric.ledger import DONE, QUARANTINED, TERMINAL, CaseLedger
from repro.fabric.protocol import FrameError, recv_frame, send_frame
from repro.results.io import COMPACT_THRESHOLD
from repro.scenarios import executor
from repro.scenarios.executor import (
    CaseCache,
    StreamingSweepWriter,
    _write_timeline_file,
    spec_digest,
)
from repro.scenarios.runner import scheme_factory
from repro.scenarios.spec import ScenarioSpec
from repro.util.simlog import get_logger

log = get_logger()

#: on_progress callback kinds.
PROGRESS_KINDS = ("cached", "row", "quarantined", "errored")


class FabricError(RuntimeError):
    """The fabric cannot make progress (e.g. no worker activity for
    longer than ``idle_timeout_s``)."""


class FabricCoordinator:
    """One sweep's coordinator.  Construct, then call :meth:`run` once.

    The listener binds in the constructor so callers (tests, the chaos
    harness) can pass port 0 and read the assigned ``.port`` before any
    worker starts.  ``on_progress(kind, index, app_key, scheme, seed)``
    is invoked from the merge thread for every resolved case.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        bind: Tuple[str, int] = ("127.0.0.1", 0),
        *,
        verify: bool = False,
        resume_dir: Optional[str] = None,
        max_cases: Optional[int] = None,
        lease_timeout_s: float = 120.0,
        heartbeat_timeout_s: float = 15.0,
        retry_limit: int = 5,
        max_kills: int = 2,
        error_retry_limit: int = 2,
        backoff_base_s: float = 0.5,
        backoff_cap_s: float = 30.0,
        idle_timeout_s: Optional[float] = None,
        drain_grace_s: float = 2.0,
        on_progress: Optional[Callable[[str, int, str, str, int], None]] = None,
    ) -> None:
        if max_cases is not None and max_cases < 1:
            raise ValueError("max_cases must be >= 1")
        self._spec = spec
        self._verify = verify
        self._resume_dir = resume_dir
        self._max_cases = max_cases
        self._heartbeat_timeout_s = float(heartbeat_timeout_s)
        self._idle_timeout_s = idle_timeout_s
        self._drain_grace_s = float(drain_grace_s)
        self._on_progress = on_progress
        self._ledger_opts = dict(
            lease_timeout_s=lease_timeout_s,
            retry_limit=retry_limit,
            max_kills=max_kills,
            error_retry_limit=error_retry_limit,
            backoff_base_s=backoff_base_s,
            backoff_cap_s=backoff_cap_s,
        )

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._ledger: Optional[CaseLedger] = None
        self._digest = ""
        self._conn_seq = 0
        self._draining = False
        self._closing = False
        self._last_progress = time.monotonic()
        self._conns: List[socket.socket] = []
        self._accept_thread: Optional[threading.Thread] = None

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(bind)
        listener.listen(16)
        listener.settimeout(0.2)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]

    # -- control plane ---------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            with self._lock:
                if self._closing:
                    return
            try:
                sock, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us: shutting down
            with self._lock:
                if self._closing:
                    sock.close()
                    return
                self._conns.append(sock)
            thread = threading.Thread(
                target=self._serve_connection, args=(sock, peer), daemon=True
            )
            thread.start()

    def _serve_connection(self, sock: socket.socket, peer: Any) -> None:
        owner: Optional[str] = None
        clean_exit = False
        try:
            sock.settimeout(self._heartbeat_timeout_s)
            hello = recv_frame(sock)
            if hello is None or hello.get("type") != "hello":
                return
            with self._lock:
                self._conn_seq += 1
                # The connection sequence makes the owner token unique
                # per *connection*: when a worker reconnects, its stale
                # connection's eventual timeout must not release the
                # leases the fresh connection now holds.
                owner = f"{hello.get('worker', 'anon')}#{self._conn_seq}"
                self._last_progress = time.monotonic()
                digest = self._digest
            send_frame(sock, {
                "type": "welcome",
                "spec": self._spec.to_dict(),
                "digest": digest,
                "verify": self._verify,
            })
            log.info("fabric: worker %s connected from %s", owner, peer)
            while True:
                message = recv_frame(sock)
                if message is None:
                    return
                mtype = message.get("type")
                if mtype == "fetch":
                    reply = self._handle_fetch(owner)
                elif mtype == "result":
                    self._handle_result(message, owner)
                    reply = {"type": "ack"}
                elif mtype == "error":
                    self._handle_error(message, owner)
                    reply = {"type": "ack"}
                elif mtype == "heartbeat":
                    reply = {"type": "ack"}
                elif mtype == "goodbye":
                    send_frame(sock, {"type": "ack"})
                    clean_exit = True
                    return
                else:
                    raise FrameError(f"unknown frame type {mtype!r}")
                send_frame(sock, reply)
        except socket.timeout:
            log.warning(
                "fabric: worker %s missed its heartbeat (> %.1fs); "
                "re-queuing its leases", owner, self._heartbeat_timeout_s)
        except (FrameError, OSError) as exc:
            with self._lock:
                closing = self._closing
            if owner is not None and not closing:
                log.warning(
                    "fabric: worker %s connection dropped (%s); "
                    "re-queuing its leases", owner, exc)
        finally:
            try:
                sock.close()
            except OSError:
                pass
            with self._lock:
                if sock in self._conns:
                    self._conns.remove(sock)
                if owner is not None and self._ledger is not None:
                    now = time.monotonic()
                    if clean_exit:
                        touched = self._ledger.requeue_owner(owner, now)
                    else:
                        touched = self._ledger.release_owner(owner, now)
                    if touched:
                        log.warning(
                            "fabric: re-queued/quarantined case indices %s "
                            "after losing worker %s", touched, owner)
                self._cond.notify_all()

    def _handle_fetch(self, owner: str) -> Dict[str, Any]:
        now = time.monotonic()
        with self._lock:
            ledger = self._ledger
            assert ledger is not None
            if self._draining or ledger.drained():
                return {"type": "shutdown"}
            ledger.expire(now)
            entry = ledger.lease(owner, now)
            if entry is None:
                return {"type": "wait", "delay": ledger.wait_hint(now)}
            return {
                "type": "lease",
                "index": entry.index,
                "app": entry.app.to_jsonable(),
                "scheme": entry.scheme,
                "seed": entry.seed,
            }

    def _handle_result(self, message: Dict[str, Any], owner: str) -> None:
        index = int(message["index"])
        with self._lock:
            ledger = self._ledger
            assert ledger is not None
            if ledger.complete(index, message.get("payload")):
                self._last_progress = time.monotonic()
                self._cond.notify_all()

    def _handle_error(self, message: Dict[str, Any], owner: str) -> None:
        index = int(message["index"])
        error = message.get("error") or {}
        with self._lock:
            ledger = self._ledger
            assert ledger is not None
            status = ledger.record_error(index, error, time.monotonic())
            self._last_progress = time.monotonic()
            self._cond.notify_all()
        log.warning(
            "fabric: case %d raised on worker %s (%s) -> %s",
            index, owner, error.get("type", "?"), status)

    # -- merge loop ------------------------------------------------------

    def _await_terminal(self, index: int):
        """Block until ``index`` reaches a terminal ledger state,
        expiring stale leases and policing the idle timeout meanwhile."""
        with self._lock:
            ledger = self._ledger
            assert ledger is not None
            while True:
                entry = ledger.case(index)
                if entry.status in TERMINAL:
                    return entry
                now = time.monotonic()
                expired = ledger.expire(now)
                if expired:
                    log.warning(
                        "fabric: lease deadline passed for case indices %s; "
                        "re-queued", expired)
                    self._last_progress = now
                    continue
                if (self._idle_timeout_s is not None
                        and now - self._last_progress > self._idle_timeout_s):
                    raise FabricError(
                        f"fabric made no progress for {self._idle_timeout_s:.0f}s "
                        f"waiting on case {index} (no live workers?)"
                    )
                self._cond.wait(0.2)

    def _report(self, kind: str, index: int, app_key: str, scheme: str,
                seed: int) -> None:
        if self._on_progress is not None:
            self._on_progress(kind, index, app_key, scheme, seed)

    def run(
        self,
        out_path: Optional[str] = None,
        compact: Optional[bool] = None,
        timelines_dir: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Serve the sweep and return a ``run_sweep``-shaped envelope.

        The envelope matches :func:`repro.scenarios.run_sweep` exactly
        for a clean run; ``"quarantined"`` / ``"errors"`` lists appear
        (in the returned dict only, never on disk) when cases were lost
        to their failure budgets.
        """
        spec = self._spec
        telemetry_on = spec.telemetry is not None
        if timelines_dir is not None and not telemetry_on:
            raise ValueError(
                "timelines_dir requires spec.telemetry (the scenario has no "
                "QoS monitor to produce timelines)"
            )
        for app in spec.matrix.apps:
            get_app(app.name).make_params(app.params)
        for scheme in spec.matrix.schemes:
            scheme_factory(scheme, spec.checkpoint_period_s)
        cases = list(spec.matrix.cases())
        if self._max_cases is not None:
            cases = cases[: self._max_cases]

        digest = spec_digest(spec)
        cache = CaseCache(self._resume_dir) if self._resume_dir else None
        cached: Dict[int, Dict[str, Any]] = {}
        cached_timelines: Dict[int, Dict[str, Any]] = {}
        if cache is not None:
            for i, (app, scheme, seed) in enumerate(cases):
                row = cache.get(digest, app.key, scheme, seed)
                if row is None:
                    continue
                if telemetry_on:
                    timeline = cache.get_timeline(digest, app.key, scheme, seed)
                    if timeline is None:
                        continue
                    cached_timelines[i] = timeline
                cached[i] = row
            executor.stats["cache_hits"] += len(cached)
            executor.stats["cache_misses"] += len(cases) - len(cached)
        missing = [
            (i, app, scheme, seed)
            for i, (app, scheme, seed) in enumerate(cases)
            if i not in cached
        ]

        if compact is None:
            compact = len(cases) >= COMPACT_THRESHOLD
        writer = StreamingSweepWriter(out_path, compact) if out_path else None

        with self._lock:
            self._digest = digest
            self._ledger = CaseLedger(missing, **self._ledger_opts)
            self._last_progress = time.monotonic()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        log.info(
            "fabric: coordinating %d case(s) (%d cached) on %s:%d",
            len(cases), len(cached), self.host, self.port)

        rows: List[Dict[str, Any]] = []
        violations: List[Dict[str, Any]] = []
        try:
            for i, (app, scheme, seed) in enumerate(cases):
                timeline: Optional[Dict[str, Any]] = None
                if i in cached:
                    row = cached[i]
                    timeline = cached_timelines.get(i)
                    kind = "cached"
                else:
                    entry = self._await_terminal(i)
                    if entry.status != DONE:
                        kind = ("quarantined" if entry.status == QUARANTINED
                                else "errored")
                        log.error(
                            "fabric: case %s/%s/seed=%d %s (%s)",
                            app.key, scheme, seed, kind, entry.reason)
                        self._report(kind, i, app.key, scheme, seed)
                        continue
                    payload = entry.payload
                    if telemetry_on or self._verify:
                        row, timeline = payload["row"], payload.get("timeline")
                        for v in payload.get("violations", ()):
                            violations.append(
                                {"app": app.key, "scheme": scheme,
                                 "seed": seed, **v}
                            )
                    else:
                        row = payload
                    if cache is not None:
                        cache.put(digest, app.key, scheme, seed, row)
                        if telemetry_on:
                            cache.put_timeline(
                                digest, app.key, scheme, seed, timeline)
                    kind = "row"
                if timeline is not None and timelines_dir is not None:
                    _write_timeline_file(
                        timelines_dir, app.key, scheme, seed, timeline)
                rows.append(row)
                if writer is not None:
                    writer.write_row(row)
                self._report(kind, i, app.key, scheme, seed)
            if writer is not None:
                writer.finish(spec.name, spec.to_dict(), len(rows))
        except BaseException:
            if writer is not None:
                writer.abort()
            raise
        finally:
            self._shutdown()

        envelope: Dict[str, Any] = {
            "scenario": spec.name,
            "spec": spec.to_dict(),
            "n_cases": len(rows),
            "cases": rows,
        }
        if self._verify:
            envelope["violations"] = violations
        with self._lock:
            assert self._ledger is not None
            quarantined = self._ledger.quarantined_records()
            errors = self._ledger.error_records()
        # Like "violations": these keys live only in the returned
        # envelope — the streamed artifact's byte layout never changes.
        if quarantined:
            envelope["quarantined"] = quarantined
        if errors:
            envelope["errors"] = errors
        return envelope

    # -- teardown --------------------------------------------------------

    def _shutdown(self) -> None:
        """Drain politely, then close everything (idempotent)."""
        with self._lock:
            already = self._closing
            self._draining = True
            conns_open = bool(self._conns)
        if already:
            return
        if conns_open:
            # Give connected workers one grace window to fetch their
            # shutdown order and say goodbye before we cut the cord.
            deadline = time.monotonic() + self._drain_grace_s
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._conns:
                        break
                time.sleep(0.05)
        with self._lock:
            self._closing = True
            leftovers = list(self._conns)
            self._conns.clear()
        try:
            self._listener.close()
        except OSError:
            pass
        for sock in leftovers:
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
