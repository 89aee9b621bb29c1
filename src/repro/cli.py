"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    One deployment: pick the app, the fault-tolerance scheme, optional
    fault injections, and get a metrics report.
``bench``
    Regenerate a paper artifact (``table1``/``fig8``/``fig9``/``fig10``/
    ``ablation``) — thin wrapper over :mod:`repro.bench.run_all`.
``scenario``
    The scenario engine: ``list`` the named library, ``show`` a spec as
    JSON, ``run`` a scenario's matrix serially, or ``sweep`` it across
    a warm process pool (``--jobs N``) into a streamed JSON artifact.
    ``--resume`` reuses finished cases from the case-level cache
    (``--cache-dir``); ``--max-cases N`` runs a partial sweep.
``app``
    The application registry: ``list`` the registered apps, ``show``
    one app's operators, sources, placement, and tunable parameters.
``report``
    The results API over a saved sweep artifact: group, aggregate,
    and normalize cases (``--group-by scheme --relative-to base``)
    without re-running anything — works on streamed and resumed
    artifacts too.
``watch``
    Live QoS telemetry (see :mod:`repro.telemetry`): run one case of a
    scenario with a streaming per-operator metrics table, or
    ``--replay`` a saved ``*.timeline.json`` artifact frame by frame.
    Pair with ``scenario sweep --telemetry --out sweep.json``, which
    drops per-case timelines into ``sweep.timelines/``.
``fuzz``
    Property-based scenario fuzzing (see :mod:`repro.verify`): ``gen``
    writes a seed's deterministic spec walk as JSON files, ``run``
    executes it with the invariant harness armed (non-zero exit on any
    violation), ``shrink`` delta-debugs a failing spec file down to a
    minimal reproducer that re-triggers via
    ``scenario run <file> --verify``.
``lint``
    Static analysis (see :mod:`repro.analysis`): walk the tree's ASTs
    with the ``wall-clock`` and ``observer-purity`` rules (non-zero exit
    on any finding), or check ScenarioSpec JSON files statically
    (``lint path/to/spec.json``).
``info``
    List the available applications, schemes, and the paper's reference
    numbers.

Examples
--------
::

    python -m repro run --app bcp --scheme ms-8 --duration 900 \\
        --crash 300:3,4 --verbose
    python -m repro bench fig8 --quick
    python -m repro scenario list
    python -m repro scenario run paper-fig8 --quick
    python -m repro scenario sweep flash-crowd --jobs 4 --out sweep.json
    python -m repro scenario sweep paper-fig8 --jobs 4 --resume --out sweep.json
    python -m repro scenario sweep flash-crowd --telemetry --out sweep.json
    python -m repro watch flash-crowd --quick
    python -m repro watch sweep.timelines --replay --scheme ms-8
    python -m repro report sweep.json --group-by scheme --relative-to base
    python -m repro report sweep.json --metrics throughput,latency --format md
    python -m repro app list
    python -m repro app show edgeml
    python -m repro scenario run paper-fig8 --quick --verify
    python -m repro fuzz run --seed 7 --count 20 --budget-s 60
    python -m repro fuzz shrink failing.json --out minimal.json
    python -m repro scenario run minimal.json --verify
    python -m repro info
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.apps import registry as app_registry
from repro.results import ResultSet, build_report
from repro.scenarios.runner import scheme_factories
from repro.util.tables import format_table

APPS = tuple(app_registry.app_names())


def _parse_fault(spec: str) -> Tuple[float, List[int]]:
    """``"300:3,4"`` -> ``(300.0, [3, 4])``."""
    try:
        time_part, idx_part = spec.split(":", 1)
        t = float(time_part)
        idxs = [int(i) for i in idx_part.split(",") if i]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"fault spec must look like TIME:IDX[,IDX...], got {spec!r}"
        ) from exc
    if t < 0 or not idxs:
        raise argparse.ArgumentTypeError(f"bad fault spec {spec!r}")
    return t, idxs


def _add_sweep_exec_flags(p: argparse.ArgumentParser) -> None:
    """Sweep-execution flags shared by ``scenario run`` and ``sweep``."""
    p.add_argument("--quick", action="store_true",
                   help="time-compress the scenario to ~300 sim seconds")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write the aggregated metrics JSON here")
    layout = p.add_mutually_exclusive_group()
    layout.add_argument("--compact", dest="compact", action="store_true",
                        default=None,
                        help="write separators-only JSON (automatic for "
                             "sweeps of >= 100 cases)")
    layout.add_argument("--pretty", dest="compact", action="store_false",
                        help="force indented JSON even for huge sweeps")
    p.add_argument("--resume", action="store_true",
                   help="reuse finished cases from the resume cache and "
                        "persist fresh ones (only missing cases run)")
    p.add_argument("--cache-dir", default=".repro-sweep-cache",
                   metavar="DIR",
                   help="resume-cache directory (default "
                        ".repro-sweep-cache)")
    p.add_argument("--max-cases", type=int, default=None, metavar="N",
                   help="stop after the first N matrix cases (partial "
                        "sweep; pairs with --resume to test resumption)")
    p.add_argument("--telemetry", action="store_true",
                   help="attach the QoS monitor to every case; with "
                        "--out FILE.json, per-case timelines land in "
                        "FILE.timelines/")
    p.add_argument("--telemetry-interval", type=float, default=10.0,
                   metavar="SECS",
                   help="telemetry sampling interval in simulated "
                        "seconds (default 10)")
    p.add_argument("--verify", action="store_true",
                   help="arm the recovery-invariant harness on every "
                        "case; violations print to stderr and the "
                        "exit status is 1 if any fired")
    p.add_argument("--n-phones", type=int, default=None, metavar="N",
                   help="scale every region's population to N phones "
                        "(the computing count is kept; the idle spare "
                        "pool absorbs the rest)")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="MobiStreams reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one deployment and report metrics")
    run_p.add_argument("--app", choices=APPS, default="bcp")
    run_p.add_argument("--scheme", choices=list(scheme_factories()),
                       default="ms-8")
    run_p.add_argument("--duration", type=float, default=900.0,
                       help="simulated seconds (default 900)")
    run_p.add_argument("--warmup", type=float, default=150.0)
    run_p.add_argument("--regions", type=int, default=1)
    run_p.add_argument("--phones", type=int, default=8)
    run_p.add_argument("--idle", type=int, default=2)
    run_p.add_argument("--seed", type=int, default=3)
    run_p.add_argument("--period", type=float, default=300.0,
                       help="checkpoint period in seconds")
    run_p.add_argument("--crash", type=_parse_fault, default=None,
                       action="append", metavar="T:I,J",
                       help="crash phones I,J at time T (repeatable)")
    run_p.add_argument("--depart", type=_parse_fault, default=None,
                       action="append", metavar="T:I,J",
                       help="phones I,J leave at time T (repeatable)")
    run_p.add_argument("--verbose", action="store_true",
                       help="also print fault-tolerance counters")

    bench_p = sub.add_parser("bench", help="regenerate a paper artifact")
    bench_p.add_argument("artifact",
                         choices=["table1", "fig8", "fig9", "fig10",
                                  "ablation", "all"])
    bench_p.add_argument("--quick", action="store_true")

    scen_p = sub.add_parser("scenario", help="scenario engine commands")
    scen_sub = scen_p.add_subparsers(dest="scenario_command", required=True)
    scen_sub.add_parser("list", help="list the registered scenarios")
    show_p = scen_sub.add_parser("show", help="print one scenario spec as JSON")
    show_p.add_argument("name",
                        help="a registered scenario name or a spec JSON file")
    for verb, help_text in (
        ("run", "run a scenario's matrix and print a results table"),
        ("sweep", "run a scenario's matrix and write a JSON artifact"),
    ):
        p = scen_sub.add_parser(verb, help=help_text)
        p.add_argument("name",
                       help="a registered scenario name or a spec JSON file "
                            "(e.g. a fuzz reproducer)")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1 = serial)")
        _add_sweep_exec_flags(p)

    watch_p = sub.add_parser(
        "watch", help="live QoS telemetry: watch a scenario case or "
                      "replay a saved timeline")
    watch_p.add_argument(
        "target",
        help="a scenario name (live run), a *.timeline.json file, or a "
             "timelines directory from `scenario sweep --telemetry`")
    watch_p.add_argument("--replay", action="store_true",
                         help="render a saved timeline's history frame by "
                              "frame instead of just the final state")
    watch_p.add_argument("--app", default=None,
                         help="case app (live: default first matrix app; "
                              "replay dir: filter)")
    watch_p.add_argument("--scheme", default=None,
                         help="case scheme (live: default first matrix "
                              "scheme; replay dir: filter)")
    watch_p.add_argument("--seed", type=int, default=None,
                         help="case seed (live: default first matrix seed; "
                              "replay dir: filter)")
    watch_p.add_argument("--quick", action="store_true",
                         help="live mode: time-compress the scenario to "
                              "~300 sim seconds")
    watch_p.add_argument("--interval", type=float, default=10.0,
                         metavar="SECS",
                         help="live mode: sampling interval in simulated "
                              "seconds (default 10)")
    watch_p.add_argument("--out", default=None, metavar="FILE",
                         help="live mode: also save the timeline JSON here")
    watch_p.add_argument("--delay", type=float, default=0.0, metavar="SECS",
                         help="wall-clock pause between replay frames "
                              "(default 0)")
    watch_p.add_argument("--no-ansi", action="store_true",
                         help="append-only output: one progress line per "
                              "sample, full tables only at the end "
                              "(automatic when stdout is not a TTY)")

    rep_p = sub.add_parser(
        "report", help="analyze a saved sweep artifact (no re-running)")
    rep_p.add_argument("artifact", help="sweep artifact JSON file")
    rep_p.add_argument("--group-by", default=None, metavar="AXIS",
                       help="case axis (scenario/app/scheme/seed) or a "
                            "comma list; default: whichever axis varies")
    rep_p.add_argument("--relative-to", default=None, metavar="KEY",
                       help="normalize every metric to this group "
                            "(e.g. the 'base' scheme)")
    rep_p.add_argument("--metrics", default=None, metavar="M1,M2",
                       help="comma-separated metric list (default: the "
                            "paper's headline metrics)")
    rep_p.add_argument("--stat", default="mean",
                       choices=["mean", "median", "min", "max", "p95",
                                "std", "sum", "count"],
                       help="aggregation across each group (default mean)")
    rep_p.add_argument("--ci", action="store_true",
                       help="add the 95%% normal-approximation CI of the "
                            "mean (cross-seed error bars)")
    rep_p.add_argument("--filter", action="append", default=None,
                       metavar="AXIS=VALUE",
                       help="keep only matching cases, e.g. app=bcp "
                            "(repeatable)")
    rep_p.add_argument("--format", dest="fmt", default="table",
                       choices=["table", "json", "md"],
                       help="output format (default table)")

    app_p = sub.add_parser("app", help="application registry commands")
    app_sub = app_p.add_subparsers(dest="app_command", required=True)
    app_sub.add_parser("list", help="list the registered applications")
    app_show = app_sub.add_parser(
        "show", help="print one app's operators, placement, and parameters")
    app_show.add_argument("name")

    fuzz_p = sub.add_parser(
        "fuzz", help="property-based scenario fuzzing with invariants armed")
    fuzz_sub = fuzz_p.add_subparsers(dest="fuzz_command", required=True)
    fuzz_gen = fuzz_sub.add_parser(
        "gen", help="write a seed's deterministic spec walk as JSON files")
    fuzz_gen.add_argument("--seed", type=int, default=0,
                          help="walk seed (default 0); same seed, same bytes")
    fuzz_gen.add_argument("--count", type=int, default=20,
                          help="number of specs to generate (default 20)")
    fuzz_gen.add_argument("--out-dir", default="fuzz-specs", metavar="DIR",
                          help="spec directory (default fuzz-specs)")
    fuzz_run = fuzz_sub.add_parser(
        "run", help="generate and execute a walk with the harness armed")
    fuzz_run.add_argument("--seed", type=int, default=0,
                          help="walk seed (default 0)")
    fuzz_run.add_argument("--count", type=int, default=20,
                          help="specs in the walk (default 20)")
    fuzz_run.add_argument("--budget-s", type=float, default=None,
                          metavar="SECS",
                          help="wall budget: stop starting new specs after "
                               "this many seconds (generation is unaffected)")
    fuzz_run.add_argument("--out-dir", default=None, metavar="DIR",
                          help="write each failing spec (and its shrunk "
                               "reproducer) here")
    fuzz_run.add_argument("--no-shrink", action="store_true",
                          help="report failures without minimizing them")
    fuzz_shrink = fuzz_sub.add_parser(
        "shrink", help="delta-debug a failing spec file to a minimal one")
    fuzz_shrink.add_argument("spec", help="failing spec JSON file")
    fuzz_shrink.add_argument("--invariant", default=None, metavar="NAME",
                             help="preserve this invariant (default: any "
                                  "the input violates)")
    fuzz_shrink.add_argument("--max-runs", type=int, default=200,
                             help="cap on verification re-runs (default 200)")
    fuzz_shrink.add_argument("--out", default=None, metavar="FILE",
                             help="minimized spec path "
                                  "(default <spec>.min.json)")

    lint_p = sub.add_parser(
        "lint", help="static analysis (wall clock, observer purity) and "
                     "ScenarioSpec file checks")
    lint_p.add_argument("paths", nargs="*", default=None, metavar="PATH",
                        help="files/directories to lint; .json files are "
                             "checked as ScenarioSpec files (default: src)")
    lint_p.add_argument("--format", choices=("table", "json"), default="table",
                        help="report format (default: table)")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="list the rule catalog and exit")

    sub.add_parser("info", help="list apps, schemes, paper numbers")
    return parser


def cmd_run(args) -> int:
    from repro.scenarios import EventSpec, MatrixSpec, ScenarioSpec, run_case

    events = tuple(
        EventSpec(kind=kind, time=t, phones=tuple(idxs))
        for kind, faults in (("crash", args.crash), ("depart", args.depart))
        for t, idxs in faults or ()
    )
    try:
        spec = ScenarioSpec(
            name=f"run-{args.app}-{args.scheme}", duration_s=args.duration,
            warmup_s=args.warmup, n_regions=args.regions,
            phones_per_region=args.phones, idle_per_region=args.idle,
            checkpoint_period_s=args.period, events=events,
            matrix=MatrixSpec(apps=(args.app,), schemes=(args.scheme,),
                              seeds=(args.seed,)),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = run_case(spec, args.app, args.scheme, args.seed)
    r = out.report
    print(f"app={args.app} scheme={args.scheme} "
          f"duration={args.duration:.0f}s seed={args.seed}")
    for name, rm in r.per_region.items():
        print(f"  {name}: {rm.output_tuples} outputs, "
              f"{rm.throughput_tps:.3f} t/s, "
              f"latency mean {rm.mean_latency_s:.1f}s "
              f"p95 {rm.p95_latency_s:.1f}s")
    stopped = out.region_stopped[0]
    if stopped:
        print("  region0 STOPPED (unrecoverable failure set)")
    if out.recoveries:
        print(f"  recoveries: {out.recoveries}")
    if r.departures_handled:
        print(f"  departures handled: {r.departures_handled}")
    if args.verbose:
        print(f"  preserved bytes:    {r.preserved_bytes:,.0f}")
        print(f"  ft network bytes:   {r.ft_network_bytes:,.0f}")
        print(f"  wifi bytes:         {r.wifi_bytes:,.0f}")
        print(f"  cellular bytes:     {r.cellular_bytes:,.0f}")
        print(f"  kernel events:      {r.events_processed:,d}")
        extras = {k: v for k, v in sorted(r.counters.items())
                  if not k.startswith(("net.", "ft."))}
        for name, value in extras.items():
            print(f"  {name + ':':<19s} {value:,.0f}")
    return 1 if stopped else 0


def cmd_bench(args) -> int:
    from repro.bench import run_all

    argv = ["--quick"] if args.quick else []
    if args.artifact != "all":
        argv += ["--only", args.artifact]
    return run_all.main(argv)


def _load_spec_arg(name: str):
    """Resolve a scenario argument: a registered name or a spec JSON
    file.  Returns ``(spec, None)`` or ``(None, exit_code)``."""
    import os

    from repro import scenarios

    if os.path.isfile(name):
        # A spec JSON file (a fuzz reproducer, a hand-written scenario)
        # works everywhere a registered name does.
        from repro.scenarios import ScenarioSpec

        try:
            with open(name, encoding="utf-8") as fh:
                return ScenarioSpec.from_json(fh.read()), None
        except (ValueError, TypeError, OSError) as exc:
            print(f"error: cannot load spec file {name}: {exc}",
                  file=sys.stderr)
            return None, 2
    try:
        return scenarios.get(name), None
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return None, 2


def _prepare_sweep_spec(spec, args):
    """Apply the shared sweep-shaping flags (--quick/--n-phones/
    --telemetry) and derive the timelines directory.
    Returns ``(spec, timelines_dir)``; ``(None, None)`` on a usage
    error (already printed)."""
    if args.quick:
        spec = spec.quick()
    if getattr(args, "n_phones", None) is not None:
        try:
            spec = spec.scaled_phones(args.n_phones)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None, None
    if getattr(args, "telemetry", False):
        import dataclasses

        from repro.scenarios import TelemetrySpec
        spec = dataclasses.replace(
            spec, telemetry=TelemetrySpec(interval_s=args.telemetry_interval))
    timelines_dir = None
    if getattr(args, "telemetry", False) and getattr(args, "out", None):
        base = args.out[:-5] if args.out.endswith(".json") else args.out
        timelines_dir = base + ".timelines"
    return spec, timelines_dir


def _report_failures(result, verify: bool) -> bool:
    """Surface a sweep envelope's violation and error records on
    stderr.  Returns True when any fired (the non-zero-exit signal)."""
    violations = result.get("violations", []) if verify else []
    if verify:
        for v in violations:
            print(f"VIOLATION [{v.get('invariant')}] "
                  f"app={v.get('app')} scheme={v.get('scheme')} "
                  f"seed={v.get('seed')} t={v.get('time', 0.0):.3f}s: "
                  f"{v.get('message')}", file=sys.stderr)
            for rec in (v.get("window") or [])[-5:]:
                extras = " ".join(
                    f"{k}={rec[k]}" for k in rec
                    if k not in ("time", "category"))
                print(f"    | t={rec.get('time', 0.0):9.3f} "
                      f"{rec.get('category')} {extras}", file=sys.stderr)
        print(f"verify: {len(violations)} violation(s) across "
              f"{result['n_cases']} case(s)", file=sys.stderr)
    errors = result.get("errors", [])
    for rec in errors:
        err = rec.get("error") or {}
        print(f"CASE ERROR app={rec.get('app')} scheme={rec.get('scheme')} "
              f"seed={rec.get('seed')} after {rec.get('attempts')} "
              f"attempt(s): {err.get('type')}: {err.get('message')}",
              file=sys.stderr)
    return bool(violations or errors)


def cmd_scenario(args) -> int:
    from repro import scenarios

    if args.scenario_command == "list":
        rows = []
        for spec in scenarios.all_specs():
            summary = spec.description.split(":")[0] if spec.description else ""
            if len(summary) > 56:
                summary = summary[:53] + "..."
            rows.append([
                spec.name,
                f"{spec.n_regions}", f"{len(spec.matrix)}", f"{len(spec.events)}",
                f"{spec.duration_s:.0f}s", summary,
            ])
        print(format_table(
            ["scenario", "regions", "cases", "events", "duration", "summary"],
            rows, title=f"{len(rows)} registered scenarios"))
        return 0

    spec, err = _load_spec_arg(args.name)
    if spec is None:
        return err

    if args.scenario_command == "show":
        print(spec.to_json(indent=2))
        for ev in spec.late_events():
            print(f"warning: {ev.kind} event at t={ev.time:g}s is at/past "
                  f"duration_s={spec.duration_s:g} and never fires",
                  file=sys.stderr)
        return 0

    # run / sweep
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.max_cases is not None and args.max_cases < 1:
        print("error: --max-cases must be >= 1", file=sys.stderr)
        return 2
    spec, timelines_dir = _prepare_sweep_spec(spec, args)
    if spec is None:
        return 2
    compact = getattr(args, "compact", None)
    resume_dir = args.cache_dir if args.resume else None
    from repro.scenarios import executor

    hits_before = executor.stats["cache_hits"]
    result = scenarios.run_sweep(spec, jobs=args.jobs, out_path=args.out,
                                 compact=compact, resume_dir=resume_dir,
                                 max_cases=args.max_cases,
                                 timelines_dir=timelines_dir,
                                 verify=args.verify)
    failed = _report_failures(result, verify=args.verify)
    if resume_dir:
        hits = executor.stats["cache_hits"] - hits_before
        print(f"resume cache: {hits}/{result['n_cases']} case(s) reused "
              f"from {resume_dir}", file=sys.stderr)
    if timelines_dir:
        print(f"telemetry timelines -> {timelines_dir}/", file=sys.stderr)
    rs = ResultSet.from_sweep(result)
    if args.scenario_command == "sweep" and args.out:
        print(f"{len(rs)} cases -> {args.out}")
        return 1 if failed else 0
    if args.scenario_command == "sweep":
        print(rs.to_json(compact=compact))
        return 1 if failed else 0
    rows = []
    for case in rs:
        first = case.first_region
        lat = case.end_to_end_latency_s
        rows.append([
            case.app, case.scheme, case.seed,
            f"{first.throughput_tps:.3f}" if first.throughput_tps is not None else "-",
            f"{lat:.1f}" if lat is not None else "-",
            case.recoveries, case.departures_handled,
            "STOPPED" if case.stopped else "ok",
        ])
    print(format_table(
        ["app", "scheme", "seed", "tput t/s", "e2e lat s",
         "recoveries", "departures", "outcome"],
        rows, title=f"scenario {spec.name} — {len(rs)} cases"))
    return 1 if failed or any(case.stopped for case in rs) else 0


def cmd_app(args) -> int:
    if args.app_command == "list":
        rows = []
        for entry in app_registry.all_apps():
            app = entry.create()
            rows.append([
                entry.name,
                f"{len(app.build_graph())}",
                f"{app.compute_phones_needed()}",
                f"{len(entry.param_fields())}",
                entry.description.split(":")[0],
            ])
        print(format_table(
            ["app", "operators", "phones", "params", "summary"],
            rows, title=f"{len(rows)} registered applications"))
        return 0

    # show
    try:
        entry = app_registry.get_app(args.name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    app = entry.create()
    info = app.describe() if hasattr(app, "describe") else None
    print(f"{entry.name}: {entry.description}")
    if info:
        print("\nstages:")
        for st in info["stages"]:
            wiring = f" <- {', '.join(st['upstream'])}" if st["upstream"] else ""
            width = f" x{st['width']}" if st["width"] > 1 else ""
            print(f"  {st['stage']:<8s} [{', '.join(st['ops'])}]{width}{wiring}")
        print("\noperators:")
        for op in info["operators"]:
            role = ("source" if op["source"] else
                    "sink" if op["sink"] else "")
            state = (f"state {op['state_bytes'] / 1024:.0f} KB"
                     if op["state_bytes"] else "")
            detail = "  ".join(x for x in (role, state) if x)
            print(f"  {op['name']:<4s} {op['type']:<20s} {detail}")
        groups = " | ".join(",".join(g) for g in info["placement_groups"])
        print(f"\nplacement ({info['phones_needed']} phones): {groups}")
    fields = entry.param_fields()
    if fields:
        print("\ntunable params (JSON ref: "
              f'{{"name": "{entry.name}", "params": {{...}}}}):')
        print(format_table(["param", "type", "default"],
                           [list(row) for row in fields]))
    else:
        print("\n(no tunable params)")
    return 0


def _watch_render(timeline, replay: bool, use_ansi: bool, delay: float) -> None:
    """Render one timeline: frame-by-frame history when replaying, then
    (always) the final full frame — so piped/CI output ends with the
    complete region + operator tables."""
    import time

    from repro.telemetry import render_frame, render_progress_line
    from repro.telemetry.watch import ANSI_CLEAR, replay_frames

    if replay:
        if use_ansi:
            for frame in replay_frames(timeline):
                print(ANSI_CLEAR + frame)
                if delay > 0:
                    time.sleep(delay)
        else:
            for snap in timeline.snapshots:
                print(render_progress_line(snap))
    print(render_frame(timeline))


def cmd_watch(args) -> int:
    import dataclasses
    import os

    from repro.telemetry import (
        Timeline,
        dumps_timeline,
        load_timeline,
        render_frame,
        render_progress_line,
    )
    from repro.telemetry.watch import ANSI_CLEAR

    use_ansi = not args.no_ansi and sys.stdout.isatty()

    if os.path.isdir(args.target):
        names = sorted(n for n in os.listdir(args.target)
                       if n.endswith(".timeline.json"))
        timelines = []
        for name in names:
            tl = load_timeline(os.path.join(args.target, name))
            if args.app is not None and tl.app != args.app:
                continue
            if args.scheme is not None and tl.scheme != args.scheme:
                continue
            if args.seed is not None and tl.seed != args.seed:
                continue
            timelines.append(tl)
        if not timelines:
            print(f"error: no matching *.timeline.json under {args.target}",
                  file=sys.stderr)
            return 2
        for i, tl in enumerate(timelines):
            if i:
                print()
            _watch_render(tl, args.replay, use_ansi, args.delay)
        return 0

    if os.path.isfile(args.target):
        _watch_render(load_timeline(args.target), args.replay,
                      use_ansi, args.delay)
        return 0

    # Live mode: run one case of a named scenario with telemetry attached.
    from repro import scenarios
    from repro.scenarios import TelemetrySpec, run_case

    try:
        spec = scenarios.get(args.target)
    except KeyError as exc:
        print(f"error: {exc.args[0]} (targets may also be a timeline file "
              "or directory)", file=sys.stderr)
        return 2
    if args.replay:
        print("error: --replay needs a saved timeline file or directory, "
              f"not scenario {args.target!r}", file=sys.stderr)
        return 2
    if args.quick:
        spec = spec.quick()
    spec = dataclasses.replace(
        spec, telemetry=TelemetrySpec(interval_s=args.interval))
    app = args.app if args.app is not None else spec.matrix.apps[0]
    scheme = args.scheme if args.scheme is not None else spec.matrix.schemes[0]
    seed = args.seed if args.seed is not None else spec.matrix.seeds[0]

    live: list = []

    def on_snapshot(snap) -> None:
        live.append(snap)
        if use_ansi:
            partial = Timeline(
                scenario=spec.name, app=str(app), scheme=scheme, seed=seed,
                interval_s=args.interval, snapshots=tuple(live))
            print(ANSI_CLEAR + render_frame(partial))
        else:
            print(render_progress_line(snap), flush=True)

    result = run_case(spec, app, scheme, seed, on_snapshot=on_snapshot)
    timeline = result.timeline
    if use_ansi:
        print(ANSI_CLEAR, end="")
    print(render_frame(timeline))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps_timeline(timeline.to_dict()) + "\n")
        print(f"timeline -> {args.out}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    try:
        rs = ResultSet.load(args.artifact)
    except OSError as exc:
        print(f"error: cannot read {args.artifact}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        for clause in args.filter or []:
            axis, sep, value = clause.partition("=")
            if not sep or not axis:
                raise ValueError(
                    f"--filter must look like AXIS=VALUE, got {clause!r}"
                )
            rs = rs.filter(**{axis: int(value) if axis == "seed" else value})
        group_by = args.group_by.split(",") if args.group_by else None
        metrics = args.metrics.split(",") if args.metrics else None
        print(build_report(
            rs, group_by=group_by, relative_to=args.relative_to,
            metrics=metrics, stat=args.stat, ci=args.ci, fmt=args.fmt,
        ))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_fuzz(args) -> int:
    import os

    # ``repro.verify`` re-exports the fuzz() *function*, which shadows
    # the submodule attribute on the package — go through sys.modules.
    import repro.verify.fuzz  # noqa: F401  (registers the submodule)
    fuzz_mod = sys.modules["repro.verify.fuzz"]

    if args.fuzz_command == "shrink":
        from repro.verify.shrink import shrink

        try:
            spec = fuzz_mod.load_spec(args.spec)
        except (OSError, ValueError, TypeError) as exc:
            print(f"error: cannot load spec file {args.spec}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            minimized, runs = shrink(
                spec, invariant=args.invariant, max_runs=args.max_runs,
                on_progress=lambda n, cand: print(
                    f"  run {n}: still failing with {len(cand.events)} "
                    f"event(s), duration {cand.duration_s:g}s",
                    file=sys.stderr),
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        base = args.spec[:-5] if args.spec.endswith(".json") else args.spec
        out = args.out or f"{base}.min.json"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(minimized.to_json(indent=2) + "\n")
        print(f"shrunk {len(spec.events)} -> {len(minimized.events)} "
              f"event(s), duration {spec.duration_s:g}s -> "
              f"{minimized.duration_s:g}s in {runs} run(s)")
        print(f"minimal reproducer -> {out}")
        print(f"re-trigger with: python -m repro scenario run {out} --verify")
        return 0

    if args.count < 1:
        print("error: --count must be >= 1", file=sys.stderr)
        return 2

    if args.fuzz_command == "gen":
        specs = fuzz_mod.generate_specs(args.seed, args.count)
        paths = fuzz_mod.write_specs(specs, args.out_dir)
        print(f"{len(paths)} spec(s) -> {args.out_dir}/")
        return 0

    # run
    def on_progress(i, spec, failed) -> None:
        app = spec.matrix.apps[0].key
        scheme = spec.matrix.schemes[0]
        status = "FAIL" if failed else "ok"
        print(f"[{i + 1}/{args.count}] {spec.name} "
              f"({app} x {scheme}, {spec.duration_s:g}s, "
              f"{len(spec.events)} event(s)) {status}", file=sys.stderr)

    results, executed = fuzz_mod.fuzz(
        args.seed, args.count, budget_s=args.budget_s,
        on_progress=on_progress)
    failing = [r for r in results if r.failed]
    for entry in fuzz_mod.dump_violations(failing):
        print(f"VIOLATION [{entry['invariant']}] spec={entry['spec']} "
              f"scheme={entry['scheme']} t={entry.get('time', 0.0):.3f}s: "
              f"{entry['message']}", file=sys.stderr)

    if failing and args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        fuzz_mod.write_specs([r.spec for r in failing], args.out_dir)
        if not args.no_shrink:
            from repro.verify.shrink import shrink

            for r in failing:
                try:
                    minimized, runs = shrink(r.spec)
                except ValueError:
                    continue
                path = os.path.join(args.out_dir, f"{minimized.name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(minimized.to_json(indent=2) + "\n")
                print(f"minimal reproducer -> {path} ({runs} shrink run(s))",
                      file=sys.stderr)

    skipped = args.count - executed
    budget_note = f" ({skipped} skipped by --budget-s)" if skipped else ""
    print(f"fuzz seed={args.seed}: {executed}/{args.count} spec(s) "
          f"executed{budget_note}, {len(failing)} failing")
    return 1 if failing else 0


def cmd_info(args) -> int:
    from repro.bench.fig8 import PAPER_LATENCY
    from repro.bench.table1 import PAPER as TABLE1_PAPER

    print("applications (see `repro app list`):")
    for entry in app_registry.all_apps():
        head, _, tail = entry.description.partition(": ")
        print(f"  {entry.name:<11s} {head}:")
        print(f"  {'':<11s} {tail}")
    print("\nfault-tolerance schemes:")
    for label, factory in scheme_factories().items():
        scheme = factory() if callable(factory) else factory
        print(f"  {label:<8s} {type(scheme).__name__}")
    print("\npaper reference points (Table I, tuples/s | seconds):")
    for app, rows in TABLE1_PAPER.items():
        (tl, th), (ll, lh) = rows["server"]
        print(f"  {app}: server {tl}-{th} t/s, {ll}-{lh}s latency; "
              f"ms {rows['ms_ft_off'][0]} t/s, {rows['ms_ft_off'][1]}s")
    print("\npaper Fig. 8 latency bars (normalized):")
    for app, bars in PAPER_LATENCY.items():
        print(f"  {app}: " + " ".join(f"{k}={v}" for k, v in bars.items()))
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.cli import cmd_lint as _cmd_lint
    return _cmd_lint(args)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return {"run": cmd_run, "bench": cmd_bench, "scenario": cmd_scenario,
            "watch": cmd_watch, "report": cmd_report, "app": cmd_app,
            "fuzz": cmd_fuzz, "lint": cmd_lint,
            "info": cmd_info}[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
