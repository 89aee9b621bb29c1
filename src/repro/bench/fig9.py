"""Fig. 9: performance when n nodes fail or depart within one period.

Reproduced findings:

1. MobiStreams' failure-recovery overhead is ~constant in n (every phone
   holds the MRC + preserved input, so a 7-node burst restores like a
   1-node one) — a flat curve.
2. dist-n's curve has only n+1 points (unrecoverable beyond n) and
   degrades as n rises; rep-2's curve has 2 points.
3. MobiStreams departures cost less than failures (state transfer, no
   restore/catch-up) until many simultaneous departures contend for the
   shared cellular uplink.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro import scenarios
from repro.scenarios import EventSpec, MatrixSpec, case_to_type, run_case
from repro.util.tables import format_table

#: Scheme -> maximum simultaneous failures it tolerates (None = all).
TOLERANCE = {"rep-2": 1, "dist-1": 1, "dist-2": 2, "dist-3": 3, "ms-8": None}

#: Fail the non-source phones first (indices into region0.pN).
FAIL_ORDER = [3, 4, 5, 6, 2, 7, 1, 0]


def run_fig9_point(
    app_name: str, scheme: str, n: int, mode: str = "fail",
    duration_s: float = 900.0, fault_time: float = 450.0, seed: int = 3,
) -> Tuple[float, float, bool]:
    """One (scheme, n) point; returns (tput, latency, recovered).

    The point is ``paper-fig9-burst`` (a region with spare phones to
    promote) with its burst resized to ``n`` phones crashing
    (``mode="fail"``) or departing (``"depart"``) at ``fault_time``.
    """
    kind = "crash" if mode == "fail" else "depart"
    events = (EventSpec(kind=kind, time=fault_time,
                        phones=tuple(FAIL_ORDER[:n])),) if n else ()
    spec = dataclasses.replace(
        scenarios.get("paper-fig9-burst"), duration_s=duration_s,
        events=events,
        matrix=MatrixSpec(apps=(app_name,), schemes=(scheme,), seeds=(seed,)),
    )
    case = case_to_type(run_case(spec, app_name, scheme, seed))
    return case.throughput, case.latency_s, not case.stopped


def run_fig9(app_name: str, duration_s: float = 900.0,
             max_n: int = 8) -> Dict[str, List[Tuple[int, float, float, bool]]]:
    """All curves for one application.

    Returns scheme -> list of (n, rel_tput, rel_latency, recovered); the
    per-scheme n=0 point is each curve's own normalizer, matching the
    paper's relative axes.
    """
    def curve(scheme: str, mode: str, limit: int):
        series = []
        for n in range(0, limit + 1):
            tput, lat, ok = run_fig9_point(app_name, scheme, n, mode, duration_s)
            if n == 0:
                base_t, base_l = max(tput, 1e-9), max(lat, 1e-9)
            series.append((n, tput / base_t, lat / base_l, ok))
        return series

    curves: Dict[str, List[Tuple[int, float, float, bool]]] = {
        f"{scheme} failure": curve(scheme, "fail", max_n if tol is None else tol)
        for scheme, tol in TOLERANCE.items()
    }
    # Departures: only MobiStreams handles them.
    curves["ms-8 departure"] = curve("ms-8", "depart", max_n)
    return curves


def report(app_names=("bcp", "signalguru"), duration_s: float = 900.0,
           max_n: int = 8) -> str:
    """The printable Fig. 9 reproduction."""
    sections = []
    for app_name in app_names:
        curves = run_fig9(app_name, duration_s, max_n)
        rows = []
        for label, series in curves.items():
            for n, rt, rl, ok in series:
                rows.append([
                    label, n, f"{rt * 100:.0f}%", f"{rl:.2f}x",
                    "ok" if ok else "UNRECOVERABLE",
                ])
        sections.append(format_table(
            ["curve", "n", "rel tput", "rel lat", "outcome"],
            rows, title=f"Fig. 9 — {app_name} (n nodes fail/leave in one period)",
        ))
        from repro.bench.plots import fig9_chart

        sections.append(fig9_chart(curves, app_name, "throughput"))
        sections.append(fig9_chart(curves, app_name, "latency"))
    return "\n\n".join(sections)
