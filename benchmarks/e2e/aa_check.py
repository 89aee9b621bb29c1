#!/usr/bin/env python3
"""A/A agreement: does the benchmark agree with itself on one checkout?

    python3 benchmarks/e2e/aa_check.py [--runs 3] [--seed 3] [--out DIR]

Runs two sets (A, B) of ``--runs`` full ``run.py --trace both`` runs,
alternating A1 B1 A2 B2 ..., and asserts that

* for every (workload, end-to-end metric) the medians of the two sets
  differ by no more than the metric's bound in ``BENCHMARK.json``;
* every per-layer count (units ``count`` and ``B``) is identical in all
  runs, and no run reported a failed case.

The verdict and every number behind it are written to
``benchmarks/e2e/AA_REPORT.json``; exit status is 1 on disagreement.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
COUNT_UNITS = ("count", "B")


def one_run(seed: int, out: str) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--trace", "both",
         "--seed", str(seed), "--out", out], cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed (exit {proc.returncode}); see {out}")
    with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def compare(bench: Dict[str, Any], sets: Dict[str, List[Dict[str, Any]]]) -> Dict[str, Any]:
    """The report: one row per (workload, end-to-end metric), one per
    per-layer count that moved."""
    def of(run: Dict[str, Any], workload: str) -> Dict[str, Any]:
        return next(w for w in run["workloads"] if w["workload"] == workload)

    def values(label: str, workload: str, kind: str, metric: str) -> List[float]:
        return [of(run, workload)[kind][metric]["value"] for run in sets[label]]

    rows, moved = [], []
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            a = values("A", workload, "end_to_end", metric["name"])
            b = values("B", workload, "end_to_end", metric["name"])
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = abs(med_a - med_b) / min(med_a, med_b)
            rows.append({"workload": workload, "metric": metric["name"],
                         "unit": metric["unit"], "A": a, "B": b,
                         "median_A": med_a, "median_B": med_b,
                         "relative_gap": gap, "bound": metric["bound"],
                         "agree": gap <= metric["bound"]})
        for metric in bench["per_layer"]:
            if (metric["unit"] not in COUNT_UNITS  # or not exercised by this workload
                    or metric["name"] not in of(sets["A"][0], workload)["per_layer"]):
                continue
            seen = set(values("A", workload, "per_layer", metric["name"])
                       + values("B", workload, "per_layer", metric["name"]))
            if len(seen) > 1:
                moved.append({"workload": workload, "metric": metric["name"],
                              "values": sorted(seen)})
    failed = [(label, w["workload"]) for label, runs in sets.items()
              for run in runs for w in run["workloads"] if not w["correct"]]
    return {"agree": all(r["agree"] for r in rows) and not moved and not failed,
            "end_to_end": rows, "counts_that_moved": moved,
            "runs_with_failed_cases": failed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per set (default 3)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out", default=os.path.join(ROOT, "benchmarks", "results", "e2e-aa"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sets: Dict[str, List[Dict[str, Any]]] = {"A": [], "B": []}
    for index in range(args.runs):
        for label in ("A", "B"):
            sets[label].append(
                one_run(args.seed, os.path.join(args.out, f"{label}{index + 1}")))
    report = compare(bench, sets)
    report.update(environment=sets["A"][0]["environment"], seed=args.seed,
                  runs_per_set=args.runs, order="A1 B1 A2 B2 ...")
    with open(os.path.join(HERE, "AA_REPORT.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for row in report["end_to_end"]:
        flag = "ok" if row["agree"] else "DISAGREE"
        print(f"{row['workload']:<18}{row['metric']:<14}A {row['median_A']:>10.4f}  "
              f"B {row['median_B']:>10.4f}  gap {row['relative_gap']:6.3f}  "
              f"bound {row['bound']:.2f}  {flag}")
    for item in report["counts_that_moved"]:
        print(f"COUNT MOVED {item['workload']} {item['metric']}: {item['values']}")
    print("A/A agreement:", "yes" if report["agree"] else "NO")
    return 0 if report["agree"] else 1


if __name__ == "__main__":
    sys.exit(main())
