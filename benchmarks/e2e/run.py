#!/usr/bin/env python3
"""The end-to-end + per-layer benchmark of the MobiStreams simulator.

    python3 benchmarks/e2e/run.py [--workload W]... [--seed 3] [--seconds N]
                                  [--trace 0|1|both] [--out DIR] [--record]

Every workload runs in fresh child processes (``session.py``); this file
starts them, checks what they produced, and prints every metric named
in ``BENCHMARK.json`` with its unit, median, quartiles and sample count.
Times are reported at a nominal host speed (``end_to_end()`` below).
The last line of standard output is one JSON object per workload; with a
single ``--workload`` it is exactly ``{"correct", "attempted", "failed",
"metrics"}``.  Exit status is non-zero when any output was wrong.

``README.md`` next to this file is the catalogue: what each workload
and metric is for, and which layer should move which number.
"""

from __future__ import annotations

import argparse
import datetime
import fnmatch
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

# (importing session imports nothing of the program)
from session import (  # noqa: E402
    EXERCISES, HOST_NOMINAL_S, REFERENCE_SEED, ZERO_WHEN_RIGHT)

SESSION = os.path.join(HERE, "session.py")
#: In-process workloads set up (import + warm-up pass) in this many
#: fresh sessions per run.  Each times at least one pass; the last one
#: goes on until the run's timed seconds are spent.
SESSIONS = 3
#: ``fig8-cold-cli`` pays set-up in every pass, so one session does: it
#: samples set-up as this many fresh ``scenario list`` runs and times at
#: least ``MIN_CLI_PASSES`` sweeps however short ``--seconds`` is.
CLI_SETUP_SAMPLES = 5
MIN_CLI_PASSES = 4
#: Untimed reference passes of a traced session.
TRACED_PLAIN_PASSES = 2
TRACED_SETUP_SAMPLES = 3
SESSION_TIMEOUT_S = 170


def load_json(name: str) -> Any:
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- running sessions ---------------------------------------------------------
def run_session(request: Dict[str, Any]) -> Dict[str, Any]:
    """One ``session.py`` child in its own process group, waited for;
    the whole group is killed if it overruns or this process is
    interrupted, so no worker outlives the benchmark."""
    os.makedirs(request["workdir"], exist_ok=True)
    request["result_file"] = os.path.join(
        request["workdir"], f"session-{request['mode']}.json")
    if os.path.exists(request["result_file"]):
        os.unlink(request["result_file"])
    request["spawned_at"] = time.perf_counter()  # CLOCK_MONOTONIC: shared with the child
    proc = subprocess.Popen(
        [sys.executable, SESSION, json.dumps(request)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        _, err = proc.communicate(timeout=SESSION_TIMEOUT_S)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(
            f"session {request['workload']} exited {proc.returncode}:\n{err[-2000:]}")
    with open(request["result_file"], encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, traced: bool,
            out: str) -> List[Dict[str, Any]]:
    """The session documents of one workload, timed or traced."""
    cli = workload == "fig8-cold-cli"
    request = {
        "workload": workload, "seed": seed,
        "workdir": os.path.join(out, "work", workload),
        "setup_samples": TRACED_SETUP_SAMPLES if traced else CLI_SETUP_SAMPLES,
    }
    if traced:
        return [run_session(dict(
            request, mode="traced", plain_passes=TRACED_PLAIN_PASSES,
            trace_file=os.path.join(out, f"trace-{workload}.json")))]
    documents: List[Dict[str, Any]] = []
    sessions = 1 if cli else SESSIONS
    for index in range(sessions):
        spent = sum(p["wall_s"] for d in documents for p in d["passes"])
        documents.append(run_session(dict(
            request, mode="timed",
            seconds=seconds - spent if index == sessions - 1 else 0,
            min_passes=MIN_CLI_PASSES if cli else 1, check_serial=index == 0)))
    return documents


# -- judging ------------------------------------------------------------------
def judge(workload: str, sessions: List[Dict[str, Any]],
          reference: Optional[Dict[str, str]]) -> Dict[str, Any]:
    """Count attempted and failed cases over every pass a workload ran.

    A case fails when its pass says so (exception, non-zero exit, error
    row) or when the artifact it is part of differs from the reference
    digest (seed 3) or from the same artifact of another pass."""
    attempted = failed = 0
    errors: List[str] = []
    expected = dict(reference or {})
    rows: Dict[str, str] = {}
    for session in sessions:
        for kind in ("checks", "passes"):
            for record in session[kind]:
                bad = record["failed"]
                errors += record["errors"]
                for name, art in record["artifacts"].items():
                    if expected.setdefault(name, art["sha256"]) != art["sha256"]:
                        bad += art["cases"]
                        errors.append(
                            f"{name}: artifact {art['sha256'][:12]} != "
                            f"expected {expected[name][:12]}")
                    rows.update(art["rows"])
                record["failed"] = min(bad, record["attempted"])
                attempted += record["attempted"]
                failed += record["failed"]
    return {"workload": workload, "attempted": attempted, "failed": failed,
            "errors": errors, "rows": rows, "digests": expected}


def end_to_end(sessions: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Samples of every end-to-end metric (judge() must have run).

    Times are in seconds of a host that runs ``session.host_kernel`` in
    ``HOST_NOMINAL_S``: each measured time is scaled by how much slower
    or faster than that the host was around it."""
    def at_nominal(seconds: float, host_s: float) -> float:
        return seconds * HOST_NOMINAL_S / host_s

    passes = [dict(p, wall_s=at_nominal(p["wall_s"], p["host_s"]),
                   cpu_s=at_nominal(p["cpu_s"], p["host_s"]))
              for s in sessions for p in s["passes"]]
    return {
        "setup_s": [at_nominal(x, host_s) for s in sessions
                    for x, host_s in zip(s["setup_s"], s["setup_host_s"])],
        "wall_s": [p["wall_s"] for p in passes],
        "cases_per_s": [(p["attempted"] - p["failed"]) / p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mb": [s["peak_rss_mb"] for s in sessions],
        "host_s": [p["host_s"] for s in sessions for p in s["passes"]],
    }


def exercised(workload: str, measured: Dict[str, float],
              declared: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The per-layer metrics ``workload`` exercises, out of ``measured``.
    One that is missing or reads 0 is a patch point or counter that went
    away: an error, not a value."""
    out = {}
    for metric in declared:
        name = metric["name"]
        if not any(fnmatch.fnmatchcase(name, p) for p in EXERCISES[workload]):
            continue
        if name not in measured or (not measured[name] and name not in ZERO_WHEN_RIGHT):
            raise RuntimeError(
                f"{workload}: per-layer metric {name} is "
                f"{measured.get(name, 'missing')} in the traced session")
        out[name] = {"value": measured[name], "unit": metric["unit"]}
    return out


def cross_check(verdicts: List[Dict[str, Any]]) -> None:
    """Rows that two workloads both produced (paper-fig8 from the CLI,
    in-process, and its 8-case slice from the pool) must be identical."""
    seen: Dict[str, Tuple[str, str]] = {}
    for verdict in verdicts:
        for key, digest in verdict["rows"].items():
            first = seen.setdefault(key, (digest, verdict["workload"]))
            if first[0] != digest:
                message = (f"row {key} differs between {first[1]} and "
                           f"{verdict['workload']}")
                verdict["errors"].append(message)
                verdict["failed"] = max(verdict["failed"], 1)


# -- reporting ----------------------------------------------------------------
def summarize(samples: Dict[str, List[float]], spec: List[Dict[str, Any]]) -> Dict[str, Any]:
    out = {}
    for metric in spec:
        values = samples[metric["name"]]
        q1, median, q3 = quartiles(values)
        out[metric["name"]] = {"value": median, "unit": metric["unit"],
                               "q1": q1, "q3": q3, "n": len(values)}
    return out


def print_report(result: Dict[str, Any]) -> None:
    verdict = "ok" if result["correct"] else "WRONG"
    print(f"\n== {result['workload']}  seed {result['seed']}  "
          f"cases {result['attempted'] - result['failed']}/{result['attempted']} "
          f"{verdict}")
    for error in result["errors"][:10]:
        print(f"   ! {error}")
    if "end_to_end" in result:
        print(f"   {'end-to-end metric':<30}{'unit':<9}{'median':>12}"
              f"{'q1':>12}{'q3':>12}{'n':>5}")
        for name, m in result["end_to_end"].items():
            print(f"   {name:<30}{m['unit']:<9}{m['value']:>12.4f}"
                  f"{m['q1']:>12.4f}{m['q3']:>12.4f}{m['n']:>5}")
        print(f"   (times at nominal host speed; on the clock this host was "
              f"{result['host_slowdown']:.3f} x that)")
    if "per_layer" in result:
        print(f"   {'per-layer metric (traced pass)':<34}{'unit':<9}{'value':>16}")
        for name, m in result["per_layer"].items():
            print(f"   {name:<34}{m['unit']:<9}{m['value']:>16.6g}")


def write_reference(digests: Dict[str, str]) -> None:
    with open(os.path.join(HERE, "reference_digests.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": REFERENCE_SEED, "sha256": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def environment() -> Dict[str, Any]:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {"rev": rev, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy_version,
            "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds")}


def run(workloads: List[str], seed: int, seconds: float, modes: List[bool],
        out: str, reference: Optional[Dict[str, str]]) -> List[Dict[str, Any]]:
    """Run ``workloads`` in each of ``modes`` (False = timed, True =
    traced) and return one result document per workload.  ``reference``
    maps artifact names to the digests they must have (None: artifacts
    only have to agree with each other)."""
    bench = load_json("BENCHMARK.json")
    results, verdicts = [], []
    for workload in workloads:
        result: Dict[str, Any] = {"workload": workload, "seed": seed}
        sessions: List[Dict[str, Any]] = []
        for traced in modes:
            measured = measure(workload, seed, seconds, traced, out)
            sessions += measured
            if traced:
                layer = measured[0]["per_layer"]
                unknown = set(layer) - {m["name"] for m in bench["per_layer"]}
                if unknown:
                    raise RuntimeError(f"{workload}: not in BENCHMARK.json: {unknown}")
                result["per_layer"] = exercised(workload, layer, bench["per_layer"])
        verdict = judge(workload, sessions, reference)
        if False in modes:
            timed = [s for s in sessions if "per_layer" not in s]
            samples = end_to_end(timed)
            result["end_to_end"] = summarize(samples, bench["end_to_end"])
            result["host_slowdown"] = (
                statistics.median(samples["host_s"]) / HOST_NOMINAL_S)
        verdicts.append(verdict)
        results.append(result)
    cross_check(verdicts)
    for result, verdict in zip(results, verdicts):
        result.update(attempted=verdict["attempted"], failed=verdict["failed"],
                      errors=verdict["errors"], correct=verdict["failed"] == 0,
                      digests=verdict["digests"])
        print_report(result)
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED,
                        help="rewrites every scenario's matrix seeds (default 3, "
                             "the seed the reference digests pin)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: end-to-end metrics, tracing off; 1: one traced "
                             "session, per-layer metrics; both: one after the other")
    parser.add_argument("--out", default=os.path.join(ROOT, "benchmarks", "results", "e2e"),
                        metavar="DIR", help="scratch and trace-<workload>.json go here")
    parser.add_argument("--record", action="store_true",
                        help="append this run to benchmarks/e2e/history.jsonl")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite reference_digests.json from this run (all "
                             "workloads at seed 3; only after an intended change "
                             "of simulated results)")
    args = parser.parse_args(argv)
    # Die like an interrupt, so run_session() still reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    bench = load_json("BENCHMARK.json")
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    for name in workloads:
        if name not in known:
            parser.error(f"unknown workload {name!r}; known: {', '.join(known)}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    modes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    out = os.path.abspath(args.out)
    if args.update_reference:
        if args.seed != REFERENCE_SEED or workloads != known:
            parser.error("--update-reference needs every workload and "
                         f"--seed {REFERENCE_SEED}")

    reference = None
    if args.seed == REFERENCE_SEED and not args.update_reference:
        reference = load_json("benchmarks/e2e/reference_digests.json")["sha256"]

    results = run(workloads, args.seed, seconds, modes, out, reference)

    document = {"environment": environment(), "seed": args.seed,
                "seconds": seconds, "workloads": results}
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
    if args.update_reference and all(r["correct"] for r in results):
        write_reference({name: digest for r in results
                         for name, digest in r["digests"].items()})
    if args.record:
        with open(os.path.join(HERE, "history.jsonl"), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(document, sort_keys=True) + "\n")
    print()
    for result in results:
        if modes == [True]:
            # The driver wants every per-layer name on this line: what
            # the workload does not exercise is 0 here, absent elsewhere.
            metrics = {m["name"]: result["per_layer"].get(
                m["name"], {"value": 0.0, "unit": m["unit"]}) for m in bench["per_layer"]}
        else:
            metrics = result["end_to_end"]
        line = {"correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                            for name, m in metrics.items()}}
        if len(results) > 1:
            line = {"workload": result["workload"], **line}
        print(json.dumps(line))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
