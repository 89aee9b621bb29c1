"""Fig. 8: relative throughput/latency of every FT scheme, no faults.

Values are normalized to the ``base`` (no fault tolerance) system, as in
the paper.  The headline claim to reproduce: versus rep-2 and dist-n,
MobiStreams averages ≈ +230% throughput and ≈ −40% latency; ``local``
(the unrealistic upper bound) sits closest to base, and dist-n degrades
monotonically with n.

The 14 cases are the ``paper-fig8`` scenario at the bench's duration,
run as one sweep; Fig. 10 reads its byte volumes off the same cases.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro import scenarios
from repro.results import ResultSet
from repro.util.tables import format_table

#: Paper's relative latency bars (base = 1.0). Throughput bars are OCR-
#: ambiguous in our source; the target ordering is
#: local >= ms-8 > dist-1 > dist-2 > dist-3 >= rep-2.
PAPER_LATENCY = {
    "signalguru": {"base": 1.0, "rep-2": 1.63, "local": 1.01, "dist-1": 1.32,
                   "dist-2": 1.48, "dist-3": 1.59, "ms-8": 1.08},
    "bcp": {"base": 1.0, "rep-2": 3.17, "local": 1.01, "dist-1": 1.89,
            "dist-2": 2.39, "dist-3": 2.85, "ms-8": 1.17},
}

SCHEME_ORDER = ["base", "rep-2", "local", "dist-1", "dist-2", "dist-3", "ms-8"]
APPS = ("bcp", "signalguru")


def run_fig8(duration_s: float = 1200.0, **overrides) -> ResultSet:
    """Every fault-free (app, scheme) case of ``paper-fig8`` at
    ``duration_s``; ``overrides`` replace further spec fields (a smaller
    ``matrix``, another ``warmup_s``)."""
    spec = dataclasses.replace(
        scenarios.get("paper-fig8"), duration_s=duration_s, **overrides)
    result = scenarios.run_sweep(spec)
    if "errors" in result:
        raise RuntimeError(f"Fig. 8 cases failed: {result['errors']}")
    return ResultSet.from_sweep(result)


def relative(cases: ResultSet) -> Dict[str, Dict[str, float]]:
    """One app's cases normalized to base, as the figure does."""
    return cases.relative_to("base", axis="scheme",
                             metrics=("throughput", "latency"))


def report(cases: ResultSet) -> str:
    """The printable Fig. 8 reproduction (tables + bar charts) from
    :func:`run_fig8`'s cases."""
    from repro.bench.plots import fig8_chart

    sections: List[str] = []
    for app_name in APPS:
        app_cases = cases.filter(app=app_name)
        by_scheme = {case.scheme: case for case in app_cases}
        rel = relative(app_cases)
        rows = []
        for label in SCHEME_ORDER:
            rows.append([
                label,
                f"{rel[label]['throughput'] * 100:.0f}%",
                f"{PAPER_LATENCY[app_name][label]:.2f}x",
                f"{rel[label]['latency']:.2f}x",
                f"{by_scheme[label].throughput:.3f}",
                f"{by_scheme[label].latency_s:.1f}",
            ])
        sections.append(format_table(
            ["scheme", "rel tput (meas)", "rel lat (paper)", "rel lat (meas)",
             "abs tput t/s", "abs lat s"],
            rows, title=f"Fig. 8 — {app_name} (normalized to base)",
        ))
        sections.append(fig8_chart(rel, app_name, SCHEME_ORDER))
    return "\n\n".join(sections)
