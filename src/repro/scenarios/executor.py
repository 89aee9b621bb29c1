"""The sweep executor: warm worker pool, resume cache, streaming artifacts.

``run_sweep`` fans a scenario's matrix out over a process pool and
aggregates per-case metric rows into one canonical JSON artifact.  Three
properties make sweeps cheap at scale without changing a single output
byte:

**Warm pool.**  The ``multiprocessing`` pool persists between sweeps
(module-level, torn down atexit).  Workers receive the spec once, at
pool build time, through the initializer — not pickled into every case
payload — so a re-run, a resumed run, or a back-to-back sweep of the
same spec reuses live workers.  The start method is forkserver-aware:
``fork`` where the platform offers it (cheapest, inherits warm caches),
else ``forkserver``, else ``spawn``; override with ``REPRO_MP_START``.

**Ordered streaming.**  Cases run through ``imap`` (order-preserving,
one case per task), and every finished row is appended
to the artifact *immediately* — the writer reproduces the exact bytes
of :func:`~repro.results.io.dumps_artifact`, so a streamed artifact
is indistinguishable from a buffered one, but a long sweep shows
progress on disk and never holds every row twice.

**Resume cache.**  With ``resume_dir`` set, each finished case is also
written to a per-case JSON keyed by ``(spec digest, app key, scheme,
seed)``; re-running a partially finished sweep only simulates the
missing cases and merges cached rows back in matrix order.  Because
every case is deterministic in that key, a resumed artifact is
byte-identical to a fresh one.

Results stay bit-identical to a serial run at any ``jobs`` level, fresh
or resumed — guarded by the golden-hash suite in ``tests/perf/``.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import multiprocessing
import os
import re
import sys
import traceback
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple

from repro.apps.registry import AppRef, get_app
from repro.results.io import COMPACT_THRESHOLD
from repro.scenarios.runner import case_to_dict, run_case, scheme_factory
from repro.scenarios.spec import ScenarioSpec
from repro.telemetry.timeline import dumps_timeline
from repro.util.simlog import get_logger

#: Executor observability (monotone counters; tests and the perf suite
#: read these — nothing here ever reaches an artifact).
stats: Dict[str, int] = {
    "pool_creates": 0,
    "pool_reuses": 0,
    "pool_rebuilds": 0,
    "cache_hits": 0,
    "cache_misses": 0,
    "cases_run": 0,
    "case_retries": 0,
    "case_errors": 0,
}


_code_token_cache: Optional[str] = None


def _code_token(root: Optional[str] = None) -> str:
    """Best-effort identity of the simulator *code*: a digest over every
    package source file's (path, size, mtime).

    Folded into :func:`spec_digest` so a persistent resume cache can
    never silently merge rows simulated by different code into one
    "fresh" artifact.  Stat-hashing the tree (~a millisecond) catches
    what a git-HEAD token cannot: uncommitted edits, checkouts with
    packed refs, and pip-installed upgrades.  Over-invalidation (a
    `touch` with no content change) just costs a re-simulation.
    """
    global _code_token_cache
    if root is None and _code_token_cache is not None:
        return _code_token_cache
    scan_root = root or os.path.dirname(  # src/repro/scenarios/ -> src/repro
        os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(scan_root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            rel = os.path.relpath(path, scan_root)
            h.update(f"{rel}:{st.st_size}:{st.st_mtime_ns}\n".encode("utf-8"))
    token = h.hexdigest()[:16]
    if root is None:
        _code_token_cache = token
    return token


def spec_digest(spec: ScenarioSpec) -> str:
    """Stable content digest of a spec + the code that interprets it
    (the resume-cache namespace and warm-pool key)."""
    canonical = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    payload = canonical + "\n" + _code_token()
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# -- worker side --------------------------------------------------------------
#: The spec this worker process executes; installed once by the pool
#: initializer instead of being pickled into every case payload.
_WORKER_SPEC: Optional[ScenarioSpec] = None
#: Whether this worker runs cases with the invariant harness armed.
_WORKER_VERIFY: bool = False


def _init_worker(spec_dict: Dict[str, Any], verify: bool = False) -> None:
    global _WORKER_SPEC, _WORKER_VERIFY
    if os.environ.get("REPRO_ENABLE_TEST_SCHEMES"):
        # Arm the chaos test schemes in every worker so a spec whose
        # matrix names them validates and executes here too.
        from repro.fabric.testing import ensure_registered
        ensure_registered()
    _WORKER_SPEC = ScenarioSpec.from_dict(spec_dict)
    _WORKER_VERIFY = verify


def _execute_case(
    spec: ScenarioSpec, app: AppRef, scheme: str, seed: int,
    verify: bool = False,
) -> Dict[str, Any]:
    """One case as a sweep payload: the artifact row, plus — when the
    spec opts into telemetry or the sweep is verified — the timeline
    dict / violation dicts riding alongside it (kept out of the row
    itself: the row schema is strict)."""
    result = run_case(spec, app, scheme, seed, verify=verify)
    row = case_to_dict(result)
    if spec.telemetry is None and not verify:
        return row
    payload: Dict[str, Any] = {"row": row}
    if spec.telemetry is not None:
        payload["timeline"] = result.timeline.to_dict()
    if verify:
        payload["violations"] = [v.to_dict() for v in result.violations]
    return payload


def _error_record(exc: BaseException) -> Dict[str, Any]:
    """A JSON-able description of a case failure (type, message, and the
    tail of the traceback — capped so a pathological repr cannot bloat
    run reports or fabric frames)."""
    text = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__))
    if len(text) > 4000:
        text = "...\n" + text[-4000:]
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": text,
    }


def _try_execute(
    spec: ScenarioSpec, app: AppRef, scheme: str, seed: int,
    verify: bool = False,
) -> Dict[str, Any]:
    """:func:`_execute_case`, but an exception becomes a structured
    ``{"__error__": ...}`` payload instead of unwinding the sweep.

    Only ``Exception`` is captured: ``KeyboardInterrupt``/``SystemExit``
    (and a SIGKILL, which no handler sees) still tear the process down.
    The sentinel key cannot collide with a real payload — case rows and
    telemetry envelopes never contain dunder keys.
    """
    try:
        return _execute_case(spec, app, scheme, seed, verify=verify)
    except Exception as exc:
        return {"__error__": _error_record(exc)}


def _case_worker(payload: Tuple[AppRef, str, int]) -> Dict[str, Any]:
    app, scheme, seed = payload
    return _try_execute(_WORKER_SPEC, app, scheme, seed, verify=_WORKER_VERIFY)


# -- warm pool ----------------------------------------------------------------
def _start_method() -> str:
    """Preferred multiprocessing start method for this platform.

    ``fork`` is cheapest and inherits the parent's warm import/render
    caches, but it is only trusted on Linux: macOS lists it as
    available, yet forking after the ObjC/Accelerate runtime has
    spawned threads (numpy does) can abort workers — the reason CPython
    made ``spawn`` the darwin default.  Elsewhere ``forkserver`` is the
    safe fast option and ``spawn`` always exists.  Override with
    ``REPRO_MP_START``.
    """
    override = os.environ.get("REPRO_MP_START")
    available = multiprocessing.get_all_start_methods()
    if override:
        if override not in available:
            raise ValueError(
                f"REPRO_MP_START={override!r} not in {available}"
            )
        return override
    preferred = ("fork", "forkserver", "spawn") if sys.platform.startswith(
        "linux") else ("forkserver", "spawn")
    for method in preferred:
        if method in available:
            return method
    return "spawn"  # pragma: no cover - every platform has spawn


#: How often a stalled ``imap`` wakes up to check the pool's pulse.
_POOL_POLL_S = 0.5


class PoolBrokenError(RuntimeError):
    """A pool worker died (SIGKILLed, OOM-killed, segfaulted) while the
    sweep was waiting on it.

    ``multiprocessing.Pool`` silently repopulates the dead worker but
    the in-flight task is *lost* — ``imap`` would block forever.  The
    executor detects the death actively (a result stall plus a changed
    worker pid-set) and raises this instead, so ``run_sweep`` can
    rebuild the pool once and resume from the cases not yet merged.
    """


def _pool_pids(pool) -> frozenset:
    """The pool's current worker pids (changes when a worker dies and
    the pool repopulates it).  Reads a private attribute, so degrade to
    an empty set on pool-like stand-ins that lack it — the watchdog
    then simply never trips."""
    return frozenset(proc.pid for proc in getattr(pool, "_pool", ()))


_pool = None
_pool_key: Optional[Tuple[int, str, str, bool]] = None


def _warm_pool(n_procs: int, spec: ScenarioSpec, digest: str, verify: bool = False):
    """A worker pool primed with ``spec``, reused while it fits.

    A pool with *more* workers than requested is still a hit — resuming
    a mostly-cached sweep (few missing cases) must not tear down the
    warm pool the full sweep built.  Armed (``verify``) and disarmed
    pools never mix: the flag is part of the pool key.
    """
    global _pool, _pool_key
    method = _start_method()
    key = (n_procs, digest, method, verify)
    if _pool is not None and _pool_key is not None:
        have_procs, have_digest, have_method, have_verify = _pool_key
        if (have_digest, have_method, have_verify) == (digest, method, verify) \
                and have_procs >= n_procs:
            stats["pool_reuses"] += 1
            return _pool
    shutdown_pool()
    ctx = multiprocessing.get_context(method)
    _pool = ctx.Pool(
        n_procs, initializer=_init_worker, initargs=(spec.to_dict(), verify)
    )
    _pool_key = key
    stats["pool_creates"] += 1
    return _pool


def shutdown_pool() -> None:
    """Tear the warm pool down (idempotent; registered atexit)."""
    global _pool, _pool_key
    if _pool is not None:
        _pool.terminate()
        _pool.join()
    _pool = None
    _pool_key = None


atexit.register(shutdown_pool)


# -- resume cache -------------------------------------------------------------
_UNSAFE = re.compile(r"[^A-Za-z0-9._=\[\],+-]")


class CaseCache:
    """One JSON file per finished case, keyed by the sweep's identity.

    The file name is ``<spec digest>/<app key>__<scheme>__<seed>-<key
    hash>.json`` — the readable part is sanitized for the filesystem,
    and the short content hash of the *unsanitized* key makes two
    distinct cases that sanitize alike impossible to collide.  Rows are
    written atomically (tmp + rename) so a killed sweep never leaves a
    torn row behind.  Unreadable entries count as misses.

    Telemetry sweeps also cache each case's timeline as a
    ``*.timeline.json`` sidecar; a resumed telemetry sweep needs both
    halves, so a row whose sidecar is missing counts as a full miss.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    def path(self, digest: str, app_key: str, scheme: str, seed: int) -> str:
        raw = f"{app_key}__{scheme}__{seed}"
        tag = hashlib.blake2b(raw.encode("utf-8"), digest_size=6).hexdigest()
        name = f"{_UNSAFE.sub('_', raw)}-{tag}.json"
        return os.path.join(self.root, digest, name)

    def timeline_path(self, digest: str, app_key: str, scheme: str, seed: int) -> str:
        base = self.path(digest, app_key, scheme, seed)
        return base[:-len(".json")] + ".timeline.json"

    #: Paths already warned about, so one corrupt entry logs once per
    #: process — not once per resume attempt.
    _corrupt_warned: set = set()

    @classmethod
    def _read(cls, path: str) -> Optional[Dict]:
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except OSError:
            return None  # absent entry: an ordinary cold miss
        except ValueError:
            # The file exists but is not valid JSON — torn write or
            # disk corruption.  Still a miss (the case just re-runs),
            # but say so once: operators need to distinguish "cold
            # cache" from "my cache directory is rotting".
            if path not in cls._corrupt_warned:
                cls._corrupt_warned.add(path)
                get_logger().warning(
                    "resume cache: corrupt entry treated as a miss "
                    "(will re-simulate): %s", path)
            return None

    @staticmethod
    def _write(path: str, data: Dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        os.replace(tmp, path)

    def get(self, digest: str, app_key: str, scheme: str, seed: int) -> Optional[Dict]:
        return self._read(self.path(digest, app_key, scheme, seed))

    def put(self, digest: str, app_key: str, scheme: str, seed: int, row: Dict) -> None:
        self._write(self.path(digest, app_key, scheme, seed), row)

    def get_timeline(
        self, digest: str, app_key: str, scheme: str, seed: int
    ) -> Optional[Dict]:
        return self._read(self.timeline_path(digest, app_key, scheme, seed))

    def put_timeline(
        self, digest: str, app_key: str, scheme: str, seed: int, timeline: Dict
    ) -> None:
        self._write(self.timeline_path(digest, app_key, scheme, seed), timeline)


def timeline_filename(app_key: str, scheme: str, seed: int) -> str:
    """Deterministic per-case timeline file name (CaseCache sanitation
    plus collision tag, with the ``.timeline.json`` suffix)."""
    raw = f"{app_key}__{scheme}__{seed}"
    tag = hashlib.blake2b(raw.encode("utf-8"), digest_size=6).hexdigest()
    return f"{_UNSAFE.sub('_', raw)}-{tag}.timeline.json"


def _write_timeline_file(
    dirname: str, app_key: str, scheme: str, seed: int, timeline: Dict[str, Any]
) -> str:
    """Persist one case timeline under ``dirname`` (atomic, canonical
    bytes — serial/parallel/resumed sweeps write identical files)."""
    os.makedirs(dirname, exist_ok=True)
    path = os.path.join(dirname, timeline_filename(app_key, scheme, seed))
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(dumps_timeline(timeline) + "\n")
    os.replace(tmp, path)
    return path


# -- streaming artifact writer ------------------------------------------------
class StreamingSweepWriter:
    """Incremental sweep-artifact writer, byte-identical to
    :func:`~repro.results.io.dumps_artifact` plus trailing newline.

    The canonical layouts put ``"cases"`` first (sorted keys), so rows
    can stream to disk as they finish; the envelope tail (``n_cases``,
    ``scenario``, ``spec``) lands in :meth:`finish`.
    """

    def __init__(self, path: str, compact: bool) -> None:
        dirname = os.path.dirname(path)
        if dirname:
            os.makedirs(dirname, exist_ok=True)
        self.compact = compact
        self._rows = 0
        # Stream into a sidecar and promote atomically on finish: a
        # failed sweep must never destroy a previously complete
        # artifact at the same path (progress is visible in the .tmp).
        self._path = path
        self._tmp = path + ".tmp"
        self._fh: TextIO = open(self._tmp, "w", encoding="utf-8")

    def write_row(self, row: Dict[str, Any]) -> None:
        """Append one case row (called in matrix order)."""
        if self.compact:
            head = '{"cases":[' if self._rows == 0 else ","
            self._fh.write(head + json.dumps(row, sort_keys=True, separators=(",", ":")))
        else:
            head = '{\n  "cases": [\n' if self._rows == 0 else ",\n"
            dumped = json.dumps(row, sort_keys=True, indent=2)
            body = "\n".join("    " + line for line in dumped.splitlines())
            self._fh.write(head + body)
        self._rows += 1

    def finish(self, scenario: str, spec_dict: Dict[str, Any], n_cases: int) -> None:
        """Write the envelope tail and close the file."""
        if self.compact:
            head = '{"cases":[' if self._rows == 0 else ""
            spec_json = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
            self._fh.write(
                f'{head}],"n_cases":{n_cases},'
                f'"scenario":{json.dumps(scenario)},"spec":{spec_json}}}\n'
            )
        else:
            # json.dumps renders an empty list inline ("cases": []) but a
            # populated one across lines — match both shapes exactly.
            head = '{\n  "cases": []' if self._rows == 0 else "\n  ]"
            lines = json.dumps(spec_dict, sort_keys=True, indent=2).splitlines()
            spec_json = "\n".join([lines[0]] + ["  " + line for line in lines[1:]])
            self._fh.write(
                f'{head},\n  "n_cases": {n_cases},\n'
                f'  "scenario": {json.dumps(scenario)},\n'
                f'  "spec": {spec_json}\n}}\n'
            )
        self._fh.close()
        os.replace(self._tmp, self._path)

    def abort(self) -> None:
        """Discard the stream (error path); any artifact already at the
        target path survives untouched."""
        if not self._fh.closed:
            self._fh.close()
        try:
            os.unlink(self._tmp)
        except OSError:
            pass


# -- the sweep ----------------------------------------------------------------
def run_sweep(
    spec: ScenarioSpec,
    jobs: int = 1,
    out_path: Optional[str] = None,
    compact: Optional[bool] = None,
    resume_dir: Optional[str] = None,
    max_cases: Optional[int] = None,
    timelines_dir: Optional[str] = None,
    verify: bool = False,
) -> Dict[str, Any]:
    """Run a scenario's matrix, optionally in parallel, resumably.

    ``jobs > 1`` fans missing cases out over the warm process pool; the
    aggregated result is byte-identical to a serial run (case order
    follows the matrix, each case is deterministic in (spec, app,
    scheme, seed)).  ``resume_dir`` enables the case-level resume cache:
    rows already finished by an earlier run of the same spec are loaded
    instead of re-simulated, and fresh rows are persisted as they
    complete.  ``max_cases`` truncates the matrix (a partial sweep —
    with a resume cache this is the "kill half-way" half of a resumable
    run).  With ``out_path`` the artifact streams to disk row by row;
    ``compact`` picks the layout (None = automatic by sweep size, see
    :func:`~repro.results.io.dumps_artifact`).

    With ``spec.telemetry`` set, every case also produces a QoS timeline
    (see :mod:`repro.telemetry`); ``timelines_dir`` persists each one as
    ``<dir>/<app>__<scheme>__<seed>-<tag>.timeline.json``.  Timelines
    travel *beside* the artifact — the returned envelope and the row
    schema are unchanged, so telemetry sweeps aggregate and compare
    through :class:`repro.results.ResultSet` exactly like plain ones.

    With ``verify=True``, every freshly simulated case runs with the
    :class:`~repro.verify.InvariantHarness` armed and the *returned*
    envelope gains a top-level ``"violations"`` list (each entry a
    violation dict tagged with its case's app/scheme/seed).  The
    on-disk artifact and its rows stay byte-identical — the harness is
    observe-only.  Cases satisfied from the resume cache were already
    simulated by an earlier run and are *not* re-verified.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if max_cases is not None and max_cases < 1:
        raise ValueError("max_cases must be >= 1")
    telemetry_on = spec.telemetry is not None
    if timelines_dir is not None and not telemetry_on:
        raise ValueError(
            "timelines_dir requires spec.telemetry (the scenario has no "
            "QoS monitor to produce timelines)"
        )
    # Fail fast on a bad matrix axis (typo'd app/scheme, ill-typed
    # params) before any case burns simulation time.
    for app in spec.matrix.apps:
        get_app(app.name).make_params(app.params)
    for scheme in spec.matrix.schemes:
        scheme_factory(scheme, spec.checkpoint_period_s)
    cases = list(spec.matrix.cases())
    if max_cases is not None:
        cases = cases[:max_cases]

    digest = spec_digest(spec)
    cache = CaseCache(resume_dir) if resume_dir else None
    cached: Dict[int, Dict[str, Any]] = {}
    cached_timelines: Dict[int, Dict[str, Any]] = {}
    if cache is not None:
        for i, (app, scheme, seed) in enumerate(cases):
            row = cache.get(digest, app.key, scheme, seed)
            if row is None:
                continue
            if telemetry_on:
                # A telemetry case is only "done" when both halves
                # persisted; a row without its sidecar re-runs.
                timeline = cache.get_timeline(digest, app.key, scheme, seed)
                if timeline is None:
                    continue
                cached_timelines[i] = timeline
            cached[i] = row
        stats["cache_hits"] += len(cached)
        stats["cache_misses"] += len(cases) - len(cached)
    missing = [(i, case) for i, case in enumerate(cases) if i not in cached]

    if compact is None:
        compact = len(cases) >= COMPACT_THRESHOLD
    writer = StreamingSweepWriter(out_path, compact) if out_path else None

    parallel = jobs > 1 and len(missing) > 1

    def _fresh() -> Iterator[Dict[str, Any]]:
        """Missing-case payloads in matrix order (imap preserves it).

        A dead pool worker (SIGKILL, OOM) would hang ``imap`` forever:
        the pool repopulates the process but the in-flight task is
        lost.  The parallel branch therefore polls with a timeout and
        watches the pool's pid-set — a stall plus a changed pid-set is
        a death, answered by rebuilding the pool *once* and re-running
        the cases not yet yielded (determinism makes re-execution
        free).  A second death aborts the sweep for real.
        """
        if not parallel:
            for _i, (app, scheme, seed) in missing:
                yield _try_execute(spec, app, scheme, seed, verify=verify)
            return
        remaining = [case for _i, case in missing]
        rebuilds = 0
        while remaining:
            n_procs = min(jobs, len(remaining))
            pool = _warm_pool(n_procs, spec, digest, verify)
            pids = _pool_pids(pool)
            # One case per task: with a larger chunksize ``imap`` hands
            # back a plain generator, which has no ``next(timeout)`` for
            # the watchdog below to poll.
            results = pool.imap(_case_worker, remaining)
            done = 0
            try:
                while done < len(remaining):
                    try:
                        payload = results.next(timeout=_POOL_POLL_S)
                    except multiprocessing.TimeoutError:
                        if _pool_pids(pool) != pids:
                            raise PoolBrokenError(
                                "a pool worker died mid-case; its task is "
                                "lost and the pool must be rebuilt"
                            ) from None
                        continue
                    done += 1
                    yield payload
                return
            except PoolBrokenError:
                stats["pool_rebuilds"] += 1
                shutdown_pool()
                rebuilds += 1
                if rebuilds > 1:
                    raise
                # imap is ordered: everything before `done` was already
                # yielded and merged; re-dispatch only the tail.
                remaining = remaining[done:]

    rows: List[Dict[str, Any]] = []
    violations: List[Dict[str, Any]] = []
    errors: List[Dict[str, Any]] = []
    fresh = _fresh()
    try:
        for i, (app, scheme, seed) in enumerate(cases):
            row = cached.get(i)
            timeline = cached_timelines.get(i)
            if row is None:
                payload = next(fresh)
                if isinstance(payload, dict) and "__error__" in payload:
                    # The case raised instead of producing a row; retry
                    # once in-process (transient failures — a flaky
                    # extension scheme, an OS hiccup — get one more
                    # shot) before reporting it.
                    stats["case_retries"] += 1
                    payload = _try_execute(
                        spec, app, scheme, seed, verify=verify)
                if isinstance(payload, dict) and "__error__" in payload:
                    stats["case_errors"] += 1
                    errors.append({
                        "app": app.key, "scheme": scheme, "seed": seed,
                        "attempts": 2, "error": payload["__error__"],
                    })
                    continue  # failure record only — never an artifact row
                if telemetry_on or verify:
                    row, timeline = payload["row"], payload.get("timeline")
                    for v in payload.get("violations", ()):
                        violations.append(
                            {"app": app.key, "scheme": scheme, "seed": seed, **v}
                        )
                else:
                    row = payload
                stats["cases_run"] += 1
                if cache is not None:
                    cache.put(digest, app.key, scheme, seed, row)
                    if telemetry_on:
                        cache.put_timeline(
                            digest, app.key, scheme, seed, timeline)
            if timeline is not None and timelines_dir is not None:
                _write_timeline_file(
                    timelines_dir, app.key, scheme, seed, timeline)
            rows.append(row)
            if writer is not None:
                writer.write_row(row)
        if writer is not None:
            writer.finish(spec.name, spec.to_dict(), len(rows))
    except BaseException:
        if writer is not None:
            writer.abort()
        if parallel:
            # The abandoned imap leaves queued chunks (or dead workers)
            # behind; a reused pool would hang or lag the next sweep.
            shutdown_pool()
        raise
    envelope = {
        "scenario": spec.name,
        "spec": spec.to_dict(),
        "n_cases": len(rows),
        "cases": rows,
    }
    if verify:
        # Only in the returned dict: the streamed artifact's envelope
        # tail never grows keys, so verified and plain sweeps write
        # byte-identical files.
        envelope["violations"] = violations
    if errors:
        # Same rule as violations: failure records are run-report
        # material, never artifact bytes (and absent when empty, so
        # clean sweeps round-trip unchanged).
        envelope["errors"] = errors
    return envelope
