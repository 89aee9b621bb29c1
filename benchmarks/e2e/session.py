"""One measuring session of one workload, in a process of its own.

``run.py`` starts this file as a fresh child per session so that
imports, render caches, the warm pool and ``ru_maxrss`` belong to one
workload only.  A session sets up (imports, registry, one untimed
warm-up pass), runs timed passes for the seconds it was given, and
writes one JSON document; a traced session instead runs a few plain
passes, one pass under spans, one under spans + ``cProfile`` and, where
the workload asks for it, one with an observer armed.
Every pass is bracketed by a short host-speed kernel, so that ``run.py``
can report times that do not move when the host does.

The program under test only ever sees generated inputs: a
``ScenarioSpec`` object for in-process calls, a spec JSON file for the
CLI.  ``--seed`` rewrites every matrix seed; nothing else about a spec
changes.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()  # before the heavy imports below

import cProfile  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Callable, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
for _path in (HERE, SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import tracing  # noqa: E402

WORKLOADS = ("fig8-cold-cli", "fig8-warm-serial", "fleet-broadcast",
             "recovery-mix", "sweep-harness")

#: Library scenarios behind each in-process simulation workload.
SIM_SCENARIOS = {
    "fig8-warm-serial": ("paper-fig8",),
    "fleet-broadcast": ("fleet-idle-churn", "fleet-battery-wave"),
    "recovery-mix": ("failure-cascade", "paper-fig9-burst", "rush-hour-churn",
                     "handoff-storm", "battery-cliff", "edgeml-split-sweep"),
}
#: The slice of paper-fig8 that ``sweep-harness`` sweeps at ``--jobs 2``
#: (8 cases: with 14 the executor's chunked ``imap`` crashes, see README).
SHARED8 = {"apps": ("bcp", "signalguru"),
           "schemes": ("base", "rep-2", "dist-3", "ms-8")}
#: Scenarios that always run at the library seed.  What fleet-idle-churn
#: costs is decided by how many phones its seeded churn script happens to
#: remove: over seeds 1-40 one case took 0.43-1.43 s and 44k-96k events,
#: which put the spread of ``fleet-broadcast`` across ten seeds at 0.16-0.22
#: with nothing but the draw changing.  ``--seed`` still varies the other
#: half of that workload (fleet-battery-wave) and every other workload.
SEED_PINNED = ("fleet-idle-churn",)
#: The library's own seed, at which ``reference_digests.json`` pins
#: every artifact.
REFERENCE_SEED = 3
SWEEP_JOBS = 2
RESUMES_PER_PASS = 10
SUBPROCESS_TIMEOUT_S = 150
#: Files of ``fig8-cold-cli`` inside a session's work directory.
SPEC_FILE = "spec.json"
CLI_OUT_FILE = "cli-sweep.json"

#: The per-layer metrics (``fnmatch`` patterns over the names in
#: ``BENCHMARK.json``) each workload exercises.  A traced run reports
#: exactly these and refuses to report one that is missing or reads 0:
#: that is a patch point or a counter key that went away, not a
#: measurement.  What a workload bypasses (recoveries on the fault-free
#: fig8 cases, render misses once the caches are hot, every simulator
#: layer in the parent of a pooled sweep) is not listed and not reported.
_EVERY = ("sim.events", "sim.host_us_per_event", "core.source_inputs",
          "core.sink_outputs", "core.build_ms", "core.metrics_ms", "net.*_bytes",
          "net.*_calls", "checkpoint.completed", "checkpoint.*_bytes",
          "apps.render_hit_ratio", "scenarios.case_ms_*",
          "results.artifact_bytes", "bench.*")
_IN_PROCESS = _EVERY + ("*.self_s", "*.share", "apps.process_calls")
EXERCISES = {
    "fig8-cold-cli": _IN_PROCESS + ("apps.render_misses", "cli.*"),
    "fig8-warm-serial": _IN_PROCESS + (
        "results.serialize_ms", "telemetry.overhead_ratio"),
    "fleet-broadcast": _IN_PROCESS + ("results.serialize_ms",),
    "recovery-mix": _IN_PROCESS + (
        "results.serialize_ms", "checkpoint.recoveries",
        "device.failures_injected", "verify.*"),
    "sweep-harness": _EVERY + ("scenarios.*", "results.*", "other.*"),
}
#: Exercised metrics that read 0 when the program is right.
ZERO_WHEN_RIGHT = ("verify.violations", "scenarios.pool_creates",
                   "scenarios.case_retries", "scenarios.case_errors")


# -- inputs -------------------------------------------------------------------
def seeded(spec: Any, seed: int, quick: Optional[float]) -> Any:
    """``spec`` with its matrix seeds rewritten to ``seed, seed+1, ...``
    (and, for smoke runs, compressed to ``quick`` simulated seconds)."""
    seeds = tuple(seed + i for i in range(len(spec.matrix.seeds)))
    spec = dataclasses.replace(
        spec, matrix=dataclasses.replace(spec.matrix, seeds=seeds))
    return spec.quick(quick) if quick else spec


def workload_specs(workload: str, seed: int, quick: Optional[float]) -> List[Any]:
    from repro import scenarios

    if workload in SIM_SCENARIOS:
        return [seeded(scenarios.get(name),
                       REFERENCE_SEED if name in SEED_PINNED else seed, quick)
                for name in SIM_SCENARIOS[workload]]
    fig8 = seeded(scenarios.get("paper-fig8"), seed, quick)
    if workload == "sweep-harness":
        matrix = dataclasses.replace(fig8.matrix, **SHARED8)
        return [dataclasses.replace(fig8, matrix=matrix)]
    return [fig8]


# -- measuring ----------------------------------------------------------------
#: Steps of the host-speed kernel, and what they take on the sizing box
#: (2-vCPU Firecracker VM, CPython 3.11.7) when nothing else runs on its
#: core.  Reported times are in seconds of a host that fast.
HOST_KERNEL_STEPS = 60_000
HOST_NOMINAL_S = 0.030
#: Kernel runs per CPU in one reading of the host's speed.
HOST_KERNEL_RUNS = 4


class _Cell:
    __slots__ = ("count", "scale")

    def __init__(self) -> None:
        self.count, self.scale = 0, 1.5

    def step(self, i: int) -> int:
        self.count += i
        self.scale *= 1.0000001
        return self.count


def host_kernel() -> float:
    """Seconds for a fixed piece of interpreter work of the kind the
    simulator does: a generator feeding heap pushes and pops, dict
    stores and method calls on a slotted object."""
    heap: List[Any] = []
    cell, slots = _Cell(), {}
    t0 = time.perf_counter()
    for i in (j for j in range(HOST_KERNEL_STEPS)):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        slots[i & 511] = cell.step(i)
    return time.perf_counter() - t0


def host_seconds() -> float:
    """How fast the host runs the simulator right now: the kernel's
    mean time on each CPU this process may use (one, or the pool's two:
    see :func:`pin`), combined as a harmonic mean because what two
    workers get done adds up.

    The sizing VM runs the same bytecode 20-40 % slower for minutes at a
    time, each CPU on its own (a busy sibling hardware thread), and the
    kernel slows with it.  ``run.py`` therefore reports a pass as its
    wall time times ``HOST_NOMINAL_S`` over the kernel's time around it
    (README, "Steadiness")."""
    allowed = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(statistics.fmean(
                host_kernel() for _ in range(HOST_KERNEL_RUNS)))
    finally:
        os.sched_setaffinity(0, allowed)
    return len(times) / sum(1.0 / t for t in times)


def pin(workload: str) -> None:
    """Keep this process, and the children it will start, on the CPUs
    ``host_seconds()`` measures: one for the serial workloads, one per
    worker for the pooled sweep."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(
        0, cpus[:SWEEP_JOBS if workload == "sweep-harness" else 1])


def cpu_seconds() -> float:
    """user+sys CPU of this process, of the children it has reaped, and
    of live ``multiprocessing`` children (warm pool workers are only
    folded into ``RUSAGE_CHILDREN`` once they exit)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    ticks = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / ticks  # utime, stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped, MiB."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclasses.dataclass
class PassResult:
    """What one pass did: cost, outcome, and the bytes it produced."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: ``host_seconds()`` just before and just after the pass, averaged
    #: (:meth:`Session.measured_pass`; nominal when nobody looked).
    host_s: float = HOST_NOMINAL_S
    attempted: int = 0
    failed: int = 0
    #: artifact name -> {"sha256", "cases", "bytes", "rows"}: digest of
    #: the exact bytes a ``scenario sweep --out`` file holds, and of each
    #: row under its ``scenario/app/scheme/seed`` key.
    artifacts: Dict[str, Dict[str, Any]] = dataclasses.field(default_factory=dict)
    #: Wall seconds of sub-steps the harness can see (sweep-harness).
    phases: Dict[str, float] = dataclasses.field(default_factory=dict)
    case_s: List[float] = dataclasses.field(default_factory=list)
    errors: List[str] = dataclasses.field(default_factory=list)
    violations: int = 0

    def add_artifact(self, name: str, data: bytes) -> None:
        rows = json.loads(data)["cases"]
        self.artifacts[name] = {
            "sha256": sha256(data), "cases": len(rows), "bytes": len(data),
            "rows": {"/".join(str(row[k]) for k in ("scenario", "app", "scheme", "seed")):
                     sha256(json.dumps(row, sort_keys=True).encode("utf-8"))
                     for row in rows}}


def timed(work: Callable[[PassResult], Dict[str, bytes]]) -> PassResult:
    """Run one pass, stamp its wall and CPU cost, then (off the clock)
    digest the artifact bytes it returned."""
    result = PassResult()
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    produced = work(result)
    result.wall_s = time.perf_counter() - t0
    result.cpu_s = cpu_seconds() - cpu0
    for name, data in produced.items():
        result.add_artifact(name, data)
    return result


# -- the passes ---------------------------------------------------------------
def sim_pass(specs: List[Any], observer: Optional[str] = None) -> PassResult:
    """Every case of every spec, serially, reduced to artifact bytes.

    ``observer`` arms the QoS monitor (``"telemetry"``) or the invariant
    harness (``"verify"``) on each case; the artifact is still built
    from the unarmed spec, so its bytes must not move.
    """
    from repro.results import io
    from repro.scenarios import runner
    from repro.scenarios.spec import TelemetrySpec

    def work(result: PassResult) -> Dict[str, bytes]:
        produced = {}
        for spec in specs:
            armed = (dataclasses.replace(spec, telemetry=TelemetrySpec())
                     if observer == "telemetry" else spec)
            rows = []
            for app, scheme, seed in spec.matrix.cases():
                result.attempted += 1
                t0 = time.perf_counter()
                try:
                    case = runner.run_case(armed, app, scheme, seed,
                                           verify=observer == "verify")
                    rows.append(runner.case_to_dict(case))
                    result.violations += len(case.violations)
                except Exception as exc:  # a failed case, not a failed benchmark
                    result.failed += 1
                    result.errors.append(
                        f"{spec.name}/{app.key}/{scheme}/{seed}: {exc!r}")
                result.case_s.append(time.perf_counter() - t0)
            text = io.dumps_artifact({
                "scenario": spec.name, "spec": spec.to_dict(),
                "n_cases": len(rows), "cases": rows})
            produced[spec.name] = (text + "\n").encode("utf-8")
        return produced

    return timed(work)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_python(args: List[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter on the program, waited for (and killed on
    timeout by ``subprocess.run``)."""
    return subprocess.run(
        [sys.executable] + args, env=child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=SUBPROCESS_TIMEOUT_S)


def sweep_argv(spec_file: str, out_file: str) -> List[str]:
    return ["scenario", "sweep", spec_file, "--jobs", "1", "--out", out_file]


def cli_pass(spec: Any, spec_file: str, out_file: str) -> PassResult:
    """A cold ``python -m repro scenario sweep`` from exec to exit."""

    def work(result: PassResult) -> Dict[str, bytes]:
        n_cases = len(spec.matrix)
        result.attempted += n_cases
        if os.path.exists(out_file):
            os.unlink(out_file)
        proc = run_python(["-m", "repro"] + sweep_argv(spec_file, out_file))
        if proc.returncode != 0 or not os.path.exists(out_file):
            result.failed += n_cases
            result.errors.append(
                f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return {}
        with open(out_file, "rb") as fh:
            return {spec.name: fh.read()}

    return timed(work)


def sweep_pass(spec: Any, workdir: str, jobs: int = SWEEP_JOBS) -> PassResult:
    """A sweep session: fresh ``run_sweep`` into an empty resume cache,
    ten fully cached resumes, then load the artifact back."""
    from repro.results import ResultSet
    from repro.scenarios import executor

    cache = os.path.join(workdir, "resume-cache")
    out = os.path.join(workdir, "sweep.json")
    shutil.rmtree(cache, ignore_errors=True)

    def read() -> bytes:
        with open(out, "rb") as fh:
            return fh.read()

    def work(result: PassResult) -> Dict[str, bytes]:
        n_cases = len(spec.matrix)
        result.attempted += n_cases
        t0 = time.perf_counter()
        envelope = executor.run_sweep(
            spec, jobs=jobs, out_path=out, resume_dir=cache)
        t1 = time.perf_counter()
        fresh = read()
        for _ in range(RESUMES_PER_PASS):
            executor.run_sweep(spec, jobs=jobs, out_path=out, resume_dir=cache)
        t2 = time.perf_counter()
        loaded = ResultSet.load(out).to_json()
        t3 = time.perf_counter()
        result.phases = {"fresh_s": t1 - t0,
                         "resume_s": (t2 - t1) / RESUMES_PER_PASS,
                         "load_s": t3 - t2}
        result.failed += len(envelope.get("errors", ()))
        for err in envelope.get("errors", ()):
            result.errors.append(f"{err['app']}/{err['scheme']}: {err['error']['message']}")
        resumed = read()
        if resumed != fresh or (loaded + "\n").encode("utf-8") != fresh:
            result.failed = n_cases
            result.errors.append("fresh, resumed and re-serialized artifacts differ")
        return {"paper-fig8-shared8": fresh}

    return timed(work)


# -- sessions -----------------------------------------------------------------
class Session:
    """Set-up plus the pass function of one workload in this process."""

    def __init__(self, workload: str, seed: int, quick: Optional[float],
                 workdir: str) -> None:
        self.workload = workload
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        #: Raw set-up times, and ``host_seconds()`` around each.
        self.setup_s: List[float] = []
        self.setup_host_s: List[float] = []
        self._host_s: Optional[float] = None  # the latest reading
        #: When this session's process was spawned (``run.py`` passes its
        #: own clock reading; CLOCK_MONOTONIC is shared between processes).
        self.since = PROCESS_START
        self.specs = workload_specs(workload, seed, quick)
        self.spec_file = os.path.join(workdir, SPEC_FILE)
        self.out_file = os.path.join(workdir, CLI_OUT_FILE)
        if workload == "fig8-cold-cli":
            with open(self.spec_file, "w", encoding="utf-8") as fh:
                fh.write(self.specs[0].to_json())

    def one_pass(self, observer: Optional[str] = None) -> PassResult:
        if self.workload == "fig8-cold-cli":
            return cli_pass(self.specs[0], self.spec_file, self.out_file)
        if self.workload == "sweep-harness":
            return sweep_pass(self.specs[0], self.workdir)
        return sim_pass(self.specs, observer)

    def bracketed(self, work: Callable[[], Any]) -> Any:
        """``work()`` with the host's speed read before and after it;
        returns its result and the mean of the two readings.  Work that
        follows at once shares the reading in between."""
        before = self._host_s or host_seconds()
        result = work()
        self._host_s = host_seconds()
        return result, (before + self._host_s) / 2

    def measured_pass(self) -> PassResult:
        result, result.host_s = self.bracketed(self.one_pass)
        return result

    def set_up(self, samples: int) -> PassResult:
        """Everything before the first timed pass.  In-process workloads
        pay it once per session, counted from when the session's process
        was spawned; CLI passes pay it every time, so their set-up is
        sampled as fresh ``scenario list`` runs."""
        if self.workload == "fig8-cold-cli":
            def list_scenarios() -> float:
                t0 = time.perf_counter()
                proc = run_python(["-m", "repro", "scenario", "list"])
                if proc.returncode != 0:
                    raise RuntimeError(f"scenario list failed: {proc.stderr[-400:]}")
                return time.perf_counter() - t0

            for _ in range(samples):
                seconds, host_s = self.bracketed(list_scenarios)
                self.setup_s.append(seconds)
                self.setup_host_s.append(host_s)
            return PassResult()
        ready_s = time.perf_counter() - self.since  # interpreter, imports, specs
        warm_up = self.measured_pass()
        self.setup_s.append(ready_s + warm_up.wall_s)
        self.setup_host_s.append(warm_up.host_s)
        return warm_up

    def close(self) -> None:
        if self.workload == "sweep-harness":
            from repro.scenarios import executor

            executor.shutdown_pool()


def timed_session(session: Session, args: Dict[str, Any]) -> Dict[str, Any]:
    warm_up = session.set_up(args["setup_samples"])
    # Timed passes fill the seconds given without running over them: a
    # further pass starts only if one as long as the last still fits.
    passes = [session.measured_pass()]
    start = time.perf_counter() - passes[0].wall_s
    while (len(passes) < args["min_passes"] or
           time.perf_counter() - start + passes[-1].wall_s <= args["seconds"]):
        passes.append(session.measured_pass())
    session.close()
    peak = peak_rss_mb()  # before the check below grows this process
    extra: List[PassResult] = []
    if session.workload == "sweep-harness" and args.get("check_serial"):
        # jobs=1 never touches the pool: the parallel artifact must equal it.
        extra.append(sweep_pass(session.specs[0], session.workdir, jobs=1))
    return {"setup_s": session.setup_s, "setup_host_s": session.setup_host_s,
            "passes": [dataclasses.asdict(p) for p in passes],
            "checks": [dataclasses.asdict(p) for p in [warm_up] + extra],
            "peak_rss_mb": peak}


# -- traced sessions ----------------------------------------------------------
def program_counters() -> Dict[str, float]:
    """Cumulative public counters of the program in this process: the
    vision ``lru_cache``s and the executor's ``stats``.  Modules the
    program has not imported yet count as zero, so a cold process can be
    read without warming it."""
    out: Dict[str, float] = {"apps.render_hits": 0, "apps.render_misses": 0}
    vision = sys.modules.get("repro.apps.vision")
    for func in vars(vision).values() if vision else ():
        if hasattr(func, "cache_info"):
            info = func.cache_info()
            out["apps.render_hits"] += info.hits
            out["apps.render_misses"] += info.misses
    executor = sys.modules.get("repro.scenarios.executor")
    for key, value in (executor.stats if executor else {}).items():
        out[f"scenarios.{key}"] = value
    return out


def traced_pass(tracer: tracing.Tracer, pass_id: str,
                work: Callable[[], PassResult], profile: bool) -> Dict[str, Any]:
    """``work()`` under the tracer (and ``cProfile`` if ``profile``):
    its wall, counts, counter deltas and, profiled, the layer split.
    The tracer is installed *inside* the profile so that the imports it
    triggers in a cold process are attributed too."""
    before = program_counters()
    profiler = cProfile.Profile() if profile else None
    tracer.begin_pass(pass_id)
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        with tracer.installed():
            result = work()
    finally:
        if profiler is not None:
            profiler.disable()
    out: Dict[str, Any] = {"wall_s": time.perf_counter() - t0,
                           "result": dataclasses.asdict(result)}
    after = program_counters()
    out["counts"] = dict(tracer.counts)
    out["counts"].update({k: after[k] - before.get(k, 0) for k in after})
    out["spans"] = {name: tracer.durations(name, pass_id) for name in (
        "system.run", "build_system", "director.install", "system.metrics",
        "dumps_artifact", "resultset.to_json", "resultset.load", "run_case")}
    if profiler is not None:
        stats = tracing.profile_stats(profiler)
        out["layer_s"], out["blocked_s"] = tracing.layer_self_times(stats)
        out["counts"]["apps.process_calls"] = tracing.profile_ncalls(
            stats, "apps", ("process",))
    return out


def layer_metrics(span: Dict[str, Any], prof: Dict[str, Any],
                  case_s: List[float]) -> Dict[str, float]:
    """The per-layer metrics every workload can report from one pass
    under spans and one under spans + profile."""
    counts, spans = span["counts"], span["spans"]
    m: Dict[str, float] = {}
    total = sum(prof["layer_s"].values())
    for layer, seconds in prof["layer_s"].items():
        m[f"{layer}.self_s"] = seconds
        m[f"{layer}.share"] = seconds / total if total else 0.0
    for name in ("sim.events", "core.source_inputs", "core.sink_outputs",
                 "net.wifi_bytes", "net.cellular_bytes", "checkpoint.completed",
                 "checkpoint.ft_network_bytes", "checkpoint.preserved_bytes",
                 "checkpoint.recoveries", "device.failures_injected",
                 "apps.render_misses", "net.broadcast_round_calls",
                 "net.unicast_calls"):
        m[name] = counts.get(name, 0)
    # Profile ncalls exist only under the profiler; the executor's
    # counters are read there too because that is the pass that runs the
    # workload itself on sweep-harness (see traced_session).
    for name in ("apps.process_calls", "scenarios.cache_hits",
                 "scenarios.cache_misses", "scenarios.pool_creates",
                 "scenarios.pool_reuses", "scenarios.case_retries",
                 "scenarios.case_errors"):
        m[name] = prof["counts"].get(name, 0)
    lookups = counts["apps.render_hits"] + counts["apps.render_misses"]
    m["apps.render_hit_ratio"] = counts["apps.render_hits"] / lookups if lookups else 0.0
    events = counts.get("sim.events", 0)
    m["sim.host_us_per_event"] = (
        sum(spans["system.run"]) / events * 1e6 if events else 0.0)
    m["core.build_ms"] = (sum(spans["build_system"])
                          + sum(spans["director.install"])) * 1e3
    m["core.metrics_ms"] = sum(spans["system.metrics"]) * 1e3
    m["results.serialize_ms"] = (sum(spans["dumps_artifact"])
                                 + sum(spans["resultset.to_json"])) * 1e3
    m["results.load_ms"] = sum(spans["resultset.load"]) * 1e3
    m["results.artifact_bytes"] = sum(
        art["bytes"] for art in span["result"]["artifacts"].values())
    m["scenarios.case_ms_p50"] = percentile(case_s, 0.5) * 1e3
    m["scenarios.case_ms_p90"] = percentile(case_s, 0.9) * 1e3
    return m


def traced_session(session: Session, args: Dict[str, Any]) -> Dict[str, Any]:
    """Plain passes for reference, then the same pass under spans and
    under spans + profile; every artifact must come out byte-identical."""
    checks = [session.set_up(args["setup_samples"])]
    plain = [session.one_pass() for _ in range(args["plain_passes"])]
    plain_wall = statistics.median(p.wall_s for p in plain)
    tracer = tracing.Tracer()
    m: Dict[str, float] = {}
    serial_base: Optional[PassResult] = None  # sweep-harness only
    span_base = plain_wall

    if session.workload == "fig8-cold-cli":
        span, prof = cold_cli_traced(session, args)
        tracer.spans = span["child_spans"]
        case_s = span["spans"]["run_case"]
        m["cli.import_s"] = statistics.median(span["import_s"])
        m["cli.startup_s"] = statistics.median(session.setup_s)
        m["cli.cold_premium_s"] = plain_wall - span["warm_wall_s"]
    else:
        # Pool workers are other processes: what this process can see of
        # a sweep-harness case is a serial in-process sweep of the same
        # matrix.  Untraced it is the base of the speed-up figure, under
        # spans it gives the simulator's counts; the profiled pass is the
        # workload's own (parallel) pass, seen from the parent.
        work = session.one_pass
        if session.workload == "sweep-harness":
            def work() -> PassResult:
                return sweep_pass(session.specs[0], session.workdir, jobs=1)
            checks.append(work())  # the workers' caches are warm; warm this process too
            serial_base = work()
            checks.append(serial_base)
            span_base = serial_base.wall_s
        span = traced_pass(tracer, "span", work, profile=False)
        prof = traced_pass(tracer, "profile", session.one_pass, profile=True)
        case_s = [s for p in plain for s in p.case_s] + span["spans"]["run_case"]
        moved = {k: (span["counts"][k], prof["counts"].get(k))
                 for k in tracer.counts if span["counts"][k] != prof["counts"].get(k)}
        if moved and serial_base is None:
            checks.append(PassResult(attempted=1, failed=1, errors=[
                f"counts differ between two traced passes: {moved}"]))
    checks += [PassResult(**span["result"]), PassResult(**prof["result"])]
    m.update(layer_metrics(span, prof, case_s))
    m["bench.trace_overhead_ratio"] = span["wall_s"] / span_base
    m["bench.profile_overhead_ratio"] = prof["wall_s"] / plain_wall

    if serial_base is not None:
        warm = statistics.median(p.phases["fresh_s"] for p in plain)
        m["scenarios.sweep_warm_s"] = warm
        m["scenarios.pool_start_s"] = checks[0].phases["fresh_s"] - warm
        m["scenarios.pool_wait_s"] = prof["blocked_s"]
        m["scenarios.resume_hit_ms"] = statistics.median(
            p.phases["resume_s"] for p in plain) * 1e3
        m["scenarios.speedup_vs_serial"] = serial_base.phases["fresh_s"] / warm
    observer = {"fig8-warm-serial": "telemetry",
                "recovery-mix": "verify"}.get(session.workload)
    if observer:
        armed = session.one_pass(observer)
        checks.append(armed)
        m[f"{observer}.overhead_ratio"] = armed.wall_s / plain_wall
        if observer == "verify":
            m["verify.violations"] = armed.violations
            if armed.violations:
                armed.failed = armed.attempted
                armed.errors.append(f"{armed.violations} invariant violation(s)")
    session.close()
    tracer.dump(args["trace_file"], {
        "workload": session.workload, "layer_self_s": prof["layer_s"]})
    return {"setup_s": session.setup_s, "setup_host_s": session.setup_host_s,
            "passes": [dataclasses.asdict(p) for p in plain],
            "checks": [dataclasses.asdict(p) for p in checks],
            "peak_rss_mb": peak_rss_mb(), "per_layer": m}


def cold_cli_traced(session: Session, args: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The cold-process layer split: two fresh children of this session
    call ``repro.cli.main`` with the argv of the timed subprocess, one
    under spans, one under spans + profile.  Returns both records."""
    records = []
    for mode in ("inproc-span", "inproc-profile"):
        result_file = os.path.join(session.workdir, mode + ".json")
        request = dict(args, mode=mode, result_file=result_file,
                       n_cases=len(session.specs[0].matrix))
        proc = run_python([os.path.abspath(__file__), json.dumps(request)])
        if proc.returncode != 0:
            raise RuntimeError(f"traced CLI child failed: {proc.stderr[-800:]}")
        with open(result_file, encoding="utf-8") as fh:
            records.append(json.load(fh))
    records[0]["import_s"] = []
    for _ in range(args["setup_samples"]):
        t0 = time.perf_counter()
        run_python(["-c", "import repro.cli"])
        records[0]["import_s"].append(time.perf_counter() - t0)
    return records


def inproc_cli(args: Dict[str, Any]) -> Dict[str, Any]:
    """Child of :func:`cold_cli_traced`: ``repro.cli.main(argv)`` in this
    still-cold process (nothing of the program is imported before the
    clock starts), then in span mode once more now that it is warm."""
    import contextlib
    import io

    out_file = os.path.join(args["workdir"], CLI_OUT_FILE)
    argv = sweep_argv(os.path.join(args["workdir"], SPEC_FILE), out_file)

    def work() -> Dict[str, bytes]:
        from repro.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"repro.cli.main returned {code}")
        with open(out_file, "rb") as fh:
            return {"paper-fig8": fh.read()}

    def one_pass() -> PassResult:
        result = timed(lambda _result: work())
        result.attempted = args["n_cases"]
        return result

    tracer = tracing.Tracer()
    record = traced_pass(tracer, "cold", one_pass,
                         profile=args["mode"] == "inproc-profile")
    if args["mode"] == "inproc-span":
        record["warm_wall_s"] = one_pass().wall_s
        record["child_spans"] = tracer.spans
    return record


def main(argv: List[str]) -> int:
    args = json.loads(argv[1])
    if args["mode"].startswith("inproc-"):
        out = inproc_cli(args)
    else:
        pin(args["workload"])
        session = Session(args["workload"], args["seed"], None, args["workdir"])
        session.since = args["spawned_at"]
        run = timed_session if args["mode"] == "timed" else traced_session
        out = run(session, args)
    with open(args["result_file"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
