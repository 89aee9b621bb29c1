"""Benchmark suite definitions.

Four microbenchmark suites exercise the layers the hot-path work targets
(simulation kernel, trace monitor, WiFi broadcast, checkpoint rounds);
the ``scenarios`` suite times full named-scenario cases end to end, and
the ``sweep_throughput`` suite times the sweep *executor* — warm-pool
re-runs, fully-cached resumes, and raw artifact streaming.  The
``telemetry`` suite gates the QoS monitor: its sampling overhead on a
full scenario case and the kernel cost of the ``call_every`` sampler.

Each case returns a metrics dict with at least ``wall_s``; kernel-driven
cases add ``events``, ``events_per_s``, and (for scenario runs)
``sim_s`` / ``sim_s_per_wall_s`` — simulated seconds per wall second is
the simulator's "speed of light" number.  The checkpoint suite also
gauges peak host memory (tracemalloc) of snapshotting EdgeML's multi-MB
stage state; ``benchmarks/baselines/pre_pr/`` holds the eager-copy
number the copy-on-write work is measured against.

Microbenchmark cases repeat a few times and keep the best wall time (the
standard trick to strip scheduler noise); scenario cases run once — they
are long enough to be stable.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.sim.core import Simulator
from repro.sim.monitor import Trace
from repro.sim.rng import RngRegistry

#: suite name -> list of (case name, factory); the factory receives
#: ``quick`` and returns a zero-arg callable measuring one run.
CaseFn = Callable[[], Dict[str, float]]
SUITES: Dict[str, List[Tuple[str, Callable[[bool], CaseFn]]]] = {}

#: Repeats for microbenchmark cases (best-of); scenario cases run once.
#: Quick mode repeats more: its cases are milliseconds long, so best-of
#: needs more samples to shake scheduler noise out of the CI gate.
MICRO_REPEATS = 3
MICRO_REPEATS_QUICK = 5


def _register(suite: str, name: str):
    def deco(factory: Callable[[bool], CaseFn]):
        SUITES.setdefault(suite, []).append((name, factory))
        return factory
    return deco


def _events_per_s(events: int, wall: float) -> float:
    return events / wall if wall > 0 else 0.0


# -- sim kernel ---------------------------------------------------------------
@_register("sim_kernel", "timeout_churn")
def _timeout_churn(quick: bool) -> CaseFn:
    """Many processes ticking short timeouts: raw event-loop throughput."""
    n_procs, n_ticks = (20, 500) if quick else (50, 2000)

    def run() -> Dict[str, float]:
        sim = Simulator()

        def ticker(sim: Simulator, n: int):
            for _ in range(n):
                yield sim.timeout(0.01)

        for _ in range(n_procs):
            sim.process(ticker(sim, n_ticks))
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        ev = sim.events_processed
        return {"wall_s": wall, "events": ev,
                "events_per_s": _events_per_s(ev, wall)}

    return run


@_register("sim_kernel", "call_in_storm")
def _call_in_storm(quick: bool) -> CaseFn:
    """Scheduled-callback delivery: the ``call_in`` fast path."""
    n = 20_000 if quick else 100_000

    def run() -> Dict[str, float]:
        sim = Simulator()
        hits = [0]

        def bump() -> None:
            hits[0] += 1

        for i in range(n):
            sim.call_in(0.001 * (i % 97), bump)
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        assert hits[0] == n
        ev = sim.events_processed
        return {"wall_s": wall, "events": ev,
                "events_per_s": _events_per_s(ev, wall)}

    return run


@_register("sim_kernel", "process_spawn")
def _process_spawn(quick: bool) -> CaseFn:
    """Short-lived process creation/teardown (source drivers, transfers)."""
    n = 5_000 if quick else 20_000

    def run() -> Dict[str, float]:
        sim = Simulator()

        def short(sim: Simulator):
            yield sim.timeout(0.001)

        def spawner(sim: Simulator):
            for _ in range(n):
                yield sim.process(short(sim))

        sim.process(spawner(sim))
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        ev = sim.events_processed
        return {"wall_s": wall, "events": ev,
                "events_per_s": _events_per_s(ev, wall)}

    return run


# -- monitor ------------------------------------------------------------------
@_register("monitor", "record_and_select")
def _record_and_select(quick: bool) -> CaseFn:
    """Trace recording plus windowed metric queries (harness pattern)."""
    n_records, n_queries = (20_000, 200) if quick else (100_000, 1000)
    categories = ["sink_output", "checkpoint", "heartbeat", "recovery_finished"]

    def run() -> Dict[str, float]:
        trace = Trace()
        t0 = time.perf_counter()
        for i in range(n_records):
            trace.record(float(i), categories[i % len(categories)],
                         region="region0", latency=float(i % 37))
        total = 0
        for q in range(n_queries):
            since = float(q % 50) * (n_records / 100)
            total += sum(
                1 for _ in trace.select("sink_output", since=since,
                                        until=since + n_records / 10)
            )
            total += trace.count_of("recovery_finished")
        wall = time.perf_counter() - t0
        ops = n_records + 2 * n_queries
        return {"wall_s": wall, "events": ops,
                "events_per_s": _events_per_s(ops, wall), "checksum": total}

    return run


@_register("monitor", "counters")
def _counters(quick: bool) -> CaseFn:
    """Counter increments through cached handles vs. name lookups."""
    n = 50_000 if quick else 200_000

    def run() -> Dict[str, float]:
        trace = Trace()
        handle = trace.counter("net.wifi.bytes")
        t0 = time.perf_counter()
        for i in range(n):
            handle.add(1024.0)
            if i % 16 == 0:
                trace.count("ft.network_bytes", 64.0)
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "events": n,
                "events_per_s": _events_per_s(n, wall)}

    return run


# -- wifi broadcast -----------------------------------------------------------
def _make_cell(n_members: int):
    from repro.net.wifi import WifiCell

    sim = Simulator()
    rng = RngRegistry(0)
    trace = Trace()
    cell = WifiCell(sim, rng, name="bench", trace=trace)
    for i in range(n_members):
        cell.join(f"m{i}", lambda msg: None)
    return sim, cell


@_register("wifi_broadcast", "broadcast_rounds")
def _broadcast_rounds(quick: bool) -> CaseFn:
    """Back-to-back UDP broadcast rounds over an 8-member cell."""
    n_rounds, n_blocks = (20, 128) if quick else (60, 512)

    def run() -> Dict[str, float]:
        sim, cell = _make_cell(8)
        indices = np.arange(n_blocks)

        def driver():
            for _ in range(n_rounds):
                yield from cell.udp_broadcast_round("m0", indices, 1024)

        sim.process(driver())
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        ev = sim.events_processed
        return {"wall_s": wall, "events": ev,
                "events_per_s": _events_per_s(ev, wall)}

    return run


@_register("wifi_broadcast", "unicast_stream")
def _unicast_stream(quick: bool) -> CaseFn:
    """A stream of TCP-like unicasts (the per-tuple data path)."""
    n_msgs = 500 if quick else 2000

    def run() -> Dict[str, float]:
        from repro.net.packet import Message

        sim, cell = _make_cell(4)

        def driver():
            for i in range(n_msgs):
                msg = Message(src="m0", dst=f"m{1 + i % 3}", size=4096,
                              kind="tuple", payload=("tuple", "op", None))
                yield from cell.tcp_unicast(msg)

        sim.process(driver())
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        ev = sim.events_processed
        return {"wall_s": wall, "events": ev,
                "events_per_s": _events_per_s(ev, wall)}

    return run


# -- checkpoint rounds --------------------------------------------------------
@_register("checkpoint", "broadcast_checkpoint")
def _broadcast_checkpoint(quick: bool) -> CaseFn:
    """Full multi-phase checkpoint broadcasts (UDP rounds + TCP tree)."""
    n_ckpts, size = (4, 128 * 1024) if quick else (10, 512 * 1024)

    def run() -> Dict[str, float]:
        from repro.checkpoint.broadcast import broadcast_checkpoint

        sim, cell = _make_cell(8)

        def driver():
            for _ in range(n_ckpts):
                yield from broadcast_checkpoint(sim, cell, "m0", size)

        sim.process(driver())
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        ev = sim.events_processed
        return {"wall_s": wall, "events": ev,
                "events_per_s": _events_per_s(ev, wall)}

    return run


@_register("checkpoint", "edgeml_snapshot_memory")
def _edgeml_snapshot_memory(quick: bool) -> CaseFn:
    """Peak host memory of checkpointing EdgeML's multi-MB stage state.

    Mirrors the default split profile (four partitions holding ~4.6 MB
    of weights plus the classifier head), runs N checkpoint versions
    through a :class:`CheckpointStore`, and mutates only the classifier
    between versions — the realistic shape where partition weights never
    change.  ``peak_kb`` is the tracemalloc high-water mark across the
    rounds: with copy-on-write snapshots an unchanged stage costs O(1)
    per version; the committed eager-copy number lives in
    ``benchmarks/baselines/pre_pr/BENCH_checkpoint.json``.
    """
    n_versions = 4 if quick else 10

    def run() -> Dict[str, float]:
        import tracemalloc

        from repro.apps.edgeml.app import EdgeMLParams
        from repro.apps.edgeml.operators import (
            FEATURE_DIM,
            PartitionStage,
            PrototypeClassifier,
        )
        from repro.checkpoint.store import CheckpointStore
        from repro.core.operator import OperatorContext
        from repro.core.tuples import StreamTuple

        params = EdgeMLParams()
        ops: Dict[str, Any] = {}
        for k, info in enumerate(params.stage_profile()):
            ops[f"F{k}"] = PartitionStage(
                f"F{k}", layers=info["layers"], weight_bytes=info["weight_bytes"],
                out_tensor_bytes=info["out_tensor_bytes"], cost_s=info["cost_s"],
            )
        classifier = PrototypeClassifier(
            "P", n_classes=params.n_classes, cost_s=params.classifier_cost_s)
        ops["P"] = classifier
        for op in ops.values():
            getattr(op, "weights", None)  # materialize weight state up front
        ctx = OperatorContext(now=0.0, rng=RngRegistry(0))
        gen = np.random.default_rng(0xC0FFEE)
        store = CheckpointStore()
        tracemalloc.start()
        t0 = time.perf_counter()
        for version in range(1, n_versions + 1):
            store.begin_version(version, list(ops))
            for node_id, op in ops.items():
                store.put(version, node_id, frozenset([node_id]),
                          {op.name: op.snapshot()}, max(1, op.state_size()))
            # Between checkpoints only the classifier head learns.
            feat = gen.standard_normal(FEATURE_DIM)
            classifier.process(
                StreamTuple({"features": feat, "true_class": 1}, 1024, 0.0),
                ctx,
            )
        wall = time.perf_counter() - t0
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return {
            "wall_s": wall,
            "versions": float(n_versions),
            "peak_kb": peak / 1024.0,
            "retained_kb": retained / 1024.0,
        }

    return run


# -- full scenarios -----------------------------------------------------------
_SCENARIO_CASES = (
    ("paper-fig8", "bcp", "ms-8", 3),
    ("paper-fig8", "signalguru", "ms-8", 3),
    ("failure-cascade", "bcp", "ms-8", 3),
    ("edgeml-baseline", "edgeml", "ms-8", 3),
)


def _scenario_case(scenario: str, app: str, scheme: str, seed: int):
    def factory(quick: bool) -> CaseFn:
        def run() -> Dict[str, float]:
            from repro.results.model import CaseResult
            from repro.scenarios import EventDirector, get
            from repro.scenarios.runner import build_system

            spec = get(scenario)
            if quick:
                spec = spec.quick()
            system = build_system(spec, app, scheme, seed)
            director = EventDirector(system, spec)
            director.install()
            t0 = time.perf_counter()
            system.start()
            director.schedule()
            system.run(spec.duration_s)
            wall = time.perf_counter() - t0
            case = CaseResult.from_report(
                scenario=spec.name, app=app, scheme=scheme, seed=seed,
                report=system.metrics(warmup_s=spec.warmup_s),
                region_stopped=[r.stopped for r in system.regions],
            )
            ev = system.sim.events_processed
            return {
                "wall_s": wall,
                "sim_s": spec.duration_s,
                "sim_s_per_wall_s": spec.duration_s / wall if wall > 0 else 0.0,
                "events": ev,
                "events_per_s": _events_per_s(ev, wall),
                "output_tuples": case.total_output_tuples,
            }

        return run

    return factory


for _scenario, _app, _scheme, _seed in _SCENARIO_CASES:
    _register("scenarios", f"{_scenario}/{_app}/{_scheme}")(
        _scenario_case(_scenario, _app, _scheme, _seed)
    )


@_register("scenarios", "paper-fig8/full-sweep")
def _fig8_full_sweep(quick: bool) -> CaseFn:
    """The acceptance-criterion number: the whole 14-case Fig. 8 matrix,
    serially, exactly as ``scenario sweep paper-fig8 --jobs 1`` runs it."""

    def run() -> Dict[str, float]:
        from repro.scenarios import get, run_sweep

        spec = get("paper-fig8")
        if quick:
            spec = spec.quick()
        n_cases = len(spec.matrix)
        t0 = time.perf_counter()
        run_sweep(spec, jobs=1)
        wall = time.perf_counter() - t0
        total_sim = spec.duration_s * n_cases
        return {
            "wall_s": wall,
            "n_cases": n_cases,
            "sim_s": total_sim,
            "sim_s_per_wall_s": total_sim / wall if wall > 0 else 0.0,
        }

    return run


# -- sweep throughput ---------------------------------------------------------
def _mini_fig8_spec(quick: bool):
    """A reduced Fig. 8 spec for executor benchmarks: 2 cases (base +
    ms-8 on BCP), time-compressed so the executor machinery — pool
    lifecycle, spec shipping, caching, streaming — is a visible share
    of the wall time rather than sim noise."""
    import dataclasses

    from repro.scenarios import get
    from repro.scenarios.spec import MatrixSpec

    spec = get("paper-fig8")
    spec = dataclasses.replace(
        spec, matrix=MatrixSpec(apps=("bcp",), schemes=("base", "ms-8"), seeds=(3,)))
    return spec.quick(120.0 if quick else 300.0)


@_register("sweep_throughput", "fig8-mini/serial")
def _sweep_serial(quick: bool) -> CaseFn:
    """In-process serial sweep: the single-worker reference number."""

    def run() -> Dict[str, float]:
        from repro.scenarios import run_sweep

        spec = _mini_fig8_spec(quick)
        n = len(spec.matrix)
        t0 = time.perf_counter()
        run_sweep(spec, jobs=1)
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "n_cases": float(n),
                "cases_per_s": n / wall if wall > 0 else 0.0}

    return run


@_register("sweep_throughput", "fig8-mini/warm-pool")
def _sweep_warm_pool(quick: bool) -> CaseFn:
    """Parallel sweep against an already-warm pool (the steady-state
    cost of re-running a sweep: no pool build, no spec shipping)."""

    def run() -> Dict[str, float]:
        from repro.scenarios import executor, run_sweep

        spec = _mini_fig8_spec(quick)
        n = len(spec.matrix)
        run_sweep(spec, jobs=2)  # untimed: builds + primes the pool
        reuses_before = executor.stats["pool_reuses"]
        t0 = time.perf_counter()
        run_sweep(spec, jobs=2)
        wall = time.perf_counter() - t0
        if executor.stats["pool_reuses"] <= reuses_before:
            # A cold pool timed as "warm" would poison the CI ratio gate.
            raise RuntimeError("warm-pool case measured a cold pool")
        return {"wall_s": wall, "n_cases": float(n),
                "cases_per_s": n / wall if wall > 0 else 0.0}

    return run


@_register("sweep_throughput", "fig8-mini/resume-hit")
def _sweep_resume_hit(quick: bool) -> CaseFn:
    """Fully-cached resume: every row loads from the case cache, no
    simulation — the cost of re-materializing a finished sweep."""

    def run() -> Dict[str, float]:
        import shutil
        import tempfile

        from repro.scenarios import run_sweep

        spec = _mini_fig8_spec(quick)
        n = len(spec.matrix)
        rounds = 10  # a single cached resume is sub-ms: too noisy to gate
        cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
        try:
            run_sweep(spec, jobs=1, resume_dir=cache_dir)  # untimed: primes
            t0 = time.perf_counter()
            for _ in range(rounds):
                run_sweep(spec, jobs=1, resume_dir=cache_dir)
            wall = time.perf_counter() - t0
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        resumed = n * rounds
        return {"wall_s": wall, "n_cases": float(resumed),
                "cases_per_s": resumed / wall if wall > 0 else 0.0}

    return run


@_register("sweep_throughput", "stream-writer/rows")
def _stream_writer_rows(quick: bool) -> CaseFn:
    """Raw streaming-writer throughput over synthetic case rows."""
    n_rows = 500 if quick else 2000

    def run() -> Dict[str, float]:
        import os as _os
        import tempfile

        from repro.scenarios.executor import StreamingSweepWriter

        rows = [
            {
                "scenario": "synthetic", "app": "bcp", "scheme": "ms-8",
                "seed": i, "recoveries": i % 3,
                "regions": {"region0": {"output_tuples": i * 7,
                                        "throughput_tps": i * 0.25,
                                        "mean_latency_s": 1.5,
                                        "p95_latency_s": 3.25,
                                        "stopped": False}},
                "end_to_end_latency_s": 2.125, "preserved_bytes": i * 1024,
            }
            for i in range(n_rows)
        ]
        fd, path = tempfile.mkstemp(suffix=".json")
        _os.close(fd)
        try:
            t0 = time.perf_counter()
            writer = StreamingSweepWriter(path, compact=True)
            for row in rows:
                writer.write_row(row)
            writer.finish("synthetic", {"name": "synthetic"}, n_rows)
            wall = time.perf_counter() - t0
        finally:
            _os.unlink(path)
        return {"wall_s": wall, "rows": float(n_rows),
                "rows_per_s": n_rows / wall if wall > 0 else 0.0}

    return run


# -- telemetry ----------------------------------------------------------------
@_register("telemetry", "flash-crowd/overhead")
def _telemetry_overhead(quick: bool) -> CaseFn:
    """QoS-monitor sampling overhead on a full scenario case.

    Runs the same (spec, app, scheme, seed) with telemetry off and on
    (~30 samples over the run) in *interleaved* pairs, then compares
    the per-arm minimum walls (``overhead_frac`` = enabled/disabled
    minus one).  Interleaving keeps both arms exposed to the same
    machine weather; per-arm minima strip the rest of the scheduler
    noise.  ``wall_s`` is the best *enabled* wall, so the standard
    compare gate bounds the absolute cost too;
    ``tests/perf/test_telemetry_overhead.py`` gates the fraction.
    """

    def run() -> Dict[str, float]:
        import dataclasses

        from repro.scenarios import get
        from repro.scenarios.runner import run_case
        from repro.scenarios.spec import TelemetrySpec

        # Quick mode time-compresses the scenario, which inflates the
        # *fraction*: ~30 fixed-cost samples land on a tens-of-ms run.
        # The 5% overhead gate therefore reads the full-length number;
        # quick's wall_s still feeds the CI ratio gate.
        spec = get("flash-crowd")
        reps = 3
        if quick:
            spec = spec.quick(120.0)
            reps = 5
        spec_on = dataclasses.replace(
            spec, telemetry=TelemetrySpec(interval_s=spec.duration_s / 30.0))

        def one(s) -> float:
            t0 = time.perf_counter()
            run_case(s, "bcp", "ms-8", 3)
            return time.perf_counter() - t0

        one(spec)  # untimed warm-up: imports and caches, not the gate
        offs, ons = [], []
        for _ in range(reps):
            offs.append(one(spec))
            ons.append(one(spec_on))
        off, on = min(offs), min(ons)
        return {
            "wall_s": on,
            "wall_off_s": off,
            "overhead_frac": (on / off - 1.0) if off > 0 else 0.0,
        }

    return run


@_register("telemetry", "kernel/call-every")
def _telemetry_call_every(quick: bool) -> CaseFn:
    """Kernel cost of the telemetry sampling machinery itself: timeout
    churn with a ``call_every`` sampler armed and inline event counting
    on — the exact run-loop configuration a live monitor selects.
    Repeats internally (the suite is single-run for the overhead case's
    sake) and keeps the best wall."""
    n_procs, n_ticks = (10, 500) if quick else (30, 2000)
    reps = MICRO_REPEATS_QUICK if quick else MICRO_REPEATS

    def run() -> Dict[str, float]:
        def once() -> Dict[str, float]:
            sim = Simulator()
            samples = [0]

            def ticker(sim: Simulator, n: int):
                for _ in range(n):
                    yield sim.timeout(0.01)

            for _ in range(n_procs):
                sim.process(ticker(sim, n_ticks))
            cancel = sim.call_every(
                0.05, lambda: samples.__setitem__(0, samples[0] + 1))
            sim.count_inline = True
            horizon = n_ticks * 0.01
            t0 = time.perf_counter()
            sim.run(until=horizon)
            wall = time.perf_counter() - t0
            cancel()
            assert samples[0] > 0
            ev = sim.events_processed
            return {"wall_s": wall, "events": ev,
                    "events_per_s": _events_per_s(ev, wall),
                    "samples": float(samples[0])}

        best: Dict[str, float] = {}
        for _ in range(reps):
            metrics = once()
            if not best or metrics["wall_s"] < best["wall_s"]:
                best = metrics
        return best

    return run


# -- verify (invariant harness) -----------------------------------------------
@_register("verify", "paper-fig8/overhead")
def _verify_overhead(quick: bool) -> CaseFn:
    """Armed-invariant-harness overhead on a full scenario case.

    Same protocol as the telemetry overhead case: the identical
    (spec, app, scheme, seed) runs disarmed and armed in *interleaved*
    pairs, per-arm minima are compared, and ``overhead_frac`` is
    armed/disarmed minus one.  The scenario is paper-fig8 on ms-8 — the
    checkpointing scheme is the one whose trace categories (per-tuple
    source ingests included) the harness actually subscribes to, so it
    is the worst case.  ``tests/perf/test_verify_overhead.py`` gates
    the fraction at 10%; the standard compare gate bounds ``wall_s``.
    """

    def run() -> Dict[str, float]:
        from repro.scenarios import get
        from repro.scenarios.runner import run_case

        spec = get("paper-fig8")
        reps = 3
        if quick:
            spec = spec.quick(120.0)
            reps = 5

        def one(verify: bool) -> float:
            t0 = time.perf_counter()
            case = run_case(spec, "bcp", "ms-8", 3, verify=verify)
            wall = time.perf_counter() - t0
            if verify and case.violations:
                raise RuntimeError(
                    f"paper-fig8 armed run violated invariants: "
                    f"{[v.invariant for v in case.violations]}")
            return wall

        one(True)  # untimed warm-up: imports and caches, not the gate
        offs, ons = [], []
        for _ in range(reps):
            offs.append(one(False))
            ons.append(one(True))
        off, on = min(offs), min(ons)
        return {
            "wall_s": on,
            "wall_off_s": off,
            "overhead_frac": (on / off - 1.0) if off > 0 else 0.0,
        }

    return run


# -- fleet scale --------------------------------------------------------------
def _build_object_phones(n: int):
    from repro.device.phone import Phone
    from repro.net.topology import Position

    return [Phone(f"p{i}", Position(0.0, 0.0)) for i in range(n)]


def _build_fleet(n: int):
    from repro.device.fleet import Fleet
    from repro.net.topology import Position

    fleet = Fleet()
    pos = Position(0.0, 0.0)
    for i in range(n):
        fleet.create_phone(f"p{i}", pos)
    return fleet


@_register("fleet", "battery-tick/object")
def _battery_tick_object(quick: bool) -> CaseFn:
    """The per-object battery loop at fleet scale: one Python call chain
    per phone per tick (the Region._battery_loop object path)."""
    n, ticks = (2_000, 5) if quick else (10_000, 20)

    def run() -> Dict[str, float]:
        sim = Simulator()
        phones = _build_object_phones(n)

        def loop():
            for _ in range(ticks):
                yield sim.timeout(5.0)
                for phone in phones:
                    if not phone.alive:
                        continue
                    phone.battery.drain_idle(5.0)
                    if phone.battery.is_dead or phone.battery.is_critical:
                        raise RuntimeError("bench phones must stay healthy")

        sim.process(loop())
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        ev = n * ticks
        return {"wall_s": wall, "events": float(ev), "n_phones": float(n),
                "events_per_s": _events_per_s(ev, wall)}

    return run


@_register("fleet", "battery-tick/fleet")
def _battery_tick_fleet(quick: bool) -> CaseFn:
    """The vectorized sweep over the same population: one numpy sweep
    per tick regardless of n (more ticks than the object case so the
    wall time stays measurable — ``events_per_s`` is the comparable
    number, and the 10x gate in tests/perf/test_fleet_scaling.py reads
    exactly that ratio)."""
    n, ticks = (2_000, 500) if quick else (10_000, 2_000)

    def run() -> Dict[str, float]:
        sim = Simulator()
        fleet = _build_fleet(n)
        indices = np.arange(n, dtype=np.int64)

        def loop():
            for _ in range(ticks):
                yield sim.timeout(5.0)
                dead, critical = fleet.sweep_battery(indices, 5.0)
                if dead.size or critical.size:
                    raise RuntimeError("bench phones must stay healthy")

        sim.process(loop())
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        ev = n * ticks
        return {"wall_s": wall, "events": float(ev), "n_phones": float(n),
                "events_per_s": _events_per_s(ev, wall)}

    return run


def _broadcast_case(n_members: int, n_rounds: int, uniform: bool) -> Dict[str, float]:
    from repro.net.loss import BernoulliLoss

    sim, cell = _make_cell(n_members)
    if not uniform:
        # Re-model the *sender's* loss: uniformity breaks (forcing the
        # per-member fallback loop) while every receiver keeps the same
        # BernoulliLoss(0.08), so both arms do identical receiver work.
        cell.set_loss("m0", BernoulliLoss(0.5))
    n_blocks = 64
    indices = np.arange(n_blocks)

    def driver():
        for _ in range(n_rounds):
            yield from cell.udp_broadcast_round("m0", indices, 1024)

    sim.process(driver())
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    # The work that scales with fleet size: per-receiver fragment draws.
    total_frags = n_rounds * (n_members - 1) * n_blocks
    return {"wall_s": wall, "events": float(total_frags),
            "n_members": float(n_members),
            "events_per_s": _events_per_s(total_frags, wall)}


@_register("fleet", "broadcast-round/batched")
def _broadcast_batched(quick: bool) -> CaseFn:
    """UDP broadcast over a fleet-sized cell, uniform loss: the cell is
    drawn as a matrix, one numpy call per row block."""
    n_members, n_rounds = (500, 3) if quick else (2_000, 8)

    def run() -> Dict[str, float]:
        return _broadcast_case(n_members, n_rounds, uniform=True)

    return run


@_register("fleet", "broadcast-round/member-loop")
def _broadcast_member_loop(quick: bool) -> CaseFn:
    """The same broadcast with uniformity broken: the per-member
    fallback draws each receiver's fragments in Python."""
    n_members, n_rounds = (500, 3) if quick else (2_000, 8)

    def run() -> Dict[str, float]:
        return _broadcast_case(n_members, n_rounds, uniform=False)

    return run


def _rss_case(backend: str, n: int) -> Dict[str, float]:
    """Peak traced memory of one whole scenario case at ``n`` phones.

    Runs a quick paper-fig8 case with the region populations scaled to
    ``n`` and tracemalloc armed around the entire build + run (numpy
    allocations are tracemalloc-visible since 1.22, so the fleet arrays
    are counted).  The scheme is ``base``: ms-8's TR-SMC deliberately
    replicates every checkpoint onto every member, which at 16k members
    measures checkpoint fan-out, not device-state scaling.  The
    simulator, graph, and trace machinery are a fixed cost, so
    ``bytes_per_phone`` *falls* as n grows — the sub-linear curve
    tests/perf/test_fleet_scaling.py gates.
    """
    import dataclasses
    import tracemalloc

    from repro.scenarios import EventDirector, get
    from repro.scenarios.runner import build_system

    spec = dataclasses.replace(
        get("paper-fig8").quick(), device_backend=backend
    ).scaled_phones(n)
    tracemalloc.start()
    t0 = time.perf_counter()
    system = build_system(spec, "bcp", "base", 3)
    director = EventDirector(system, spec)
    director.install()
    system.start()
    director.schedule()
    system.run(spec.duration_s)
    wall = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"wall_s": wall, "n_phones": float(n),
            "peak_kb": peak / 1024.0,
            "bytes_per_phone": peak / n}


def _rss_factory(backend: str, n_full: int):
    def factory(quick: bool) -> CaseFn:
        n = max(n_full // 8, 250) if quick else n_full

        def run() -> Dict[str, float]:
            return _rss_case(backend, n)

        return run

    return factory


#: The peak-RSS curve: fleet backend across a 16x population span, with
#: the object backend at the midpoint for contrast.  The sub-linear and
#: absolute-ceiling gates live in tests/perf/test_fleet_scaling.py.
for _n in (1_000, 4_000, 16_000):
    _register("fleet", f"rss/fleet-n{_n}")(_rss_factory("fleet", _n))
_register("fleet", "rss/object-n4000")(_rss_factory("object", 4_000))


_register("fleet", "scenario/fleet-battery-wave")(
    _scenario_case("fleet-battery-wave", "bcp", "ms-8", 3)
)


@_register("fleet", "scheduler/calendar-call_in")
def _calendar_call_in(quick: bool) -> CaseFn:
    """The call_in storm on the calendar-queue backend (the heap number
    is sim_kernel's ``call_in_storm``)."""
    n = 20_000 if quick else 100_000

    def run() -> Dict[str, float]:
        sim = Simulator(scheduler="calendar")
        hits = [0]

        def bump() -> None:
            hits[0] += 1

        for i in range(n):
            sim.call_in(0.001 * (i % 97), bump)
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        assert hits[0] == n
        ev = sim.events_processed
        return {"wall_s": wall, "events": ev,
                "events_per_s": _events_per_s(ev, wall)}

    return run


#: Suites whose cases are full runs (long enough to be stable); everything
#: else — the ``sweep_throughput`` executor cases included — is short
#: enough to repeat best-of, which is what keeps the CI ratio gate calm.
#: ``telemetry`` and ``verify`` are here because their overhead cases
#: repeat *internally* (best-of per arm) — the outer best-of would
#: re-pair the arms.
SINGLE_RUN_SUITES = ("scenarios", "telemetry", "verify")


# -- execution ----------------------------------------------------------------
def run_suite(suite: str, quick: bool = False) -> Dict[str, Dict[str, float]]:
    """Run every case of ``suite``; returns case name -> metrics.

    Microbenchmark cases run :data:`MICRO_REPEATS` times and keep the
    fastest wall time; :data:`SINGLE_RUN_SUITES` cases run once.
    """
    if suite not in SUITES:
        raise KeyError(f"unknown perf suite {suite!r}; have {sorted(SUITES)}")
    results: Dict[str, Dict[str, float]] = {}
    if suite in SINGLE_RUN_SUITES:
        repeats = 1
    else:
        repeats = MICRO_REPEATS_QUICK if quick else MICRO_REPEATS
    for name, factory in SUITES[suite]:
        case = factory(quick)
        best: Dict[str, float] = {}
        for _ in range(repeats):
            metrics = case()
            if not best or metrics["wall_s"] < best["wall_s"]:
                best = metrics
        results[name] = best
    return results


def suite_names() -> List[str]:
    """All registered suite names, stable order."""
    return list(SUITES)
