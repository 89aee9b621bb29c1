"""Table I: MobiStreams vs the server-based DSPS.

Rows reproduced:

* server-based DSPS per-region throughput/latency band (uplink sweep
  across the paper's measured 0.016∼0.32 Mbps),
* MobiStreams with FT off (``base``),
* MobiStreams + a phone departing every checkpoint period,
* MobiStreams + a phone failing every checkpoint period.

The MobiStreams rows are scenario cases run by
:func:`repro.scenarios.run_case`; the server rows drive
:class:`~repro.baselines.server_dsps.ServerDSPS`, which is not a
MobiStreams deployment.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro import scenarios
from repro.apps.registry import create_app
from repro.baselines.server_dsps import ServerDSPS, ServerDSPSConfig
from repro.net.cellular import CellularConfig
from repro.scenarios import (
    EventSpec,
    MatrixSpec,
    ScenarioSpec,
    case_to_type,
    run_case,
)
from repro.util.tables import format_table
from repro.util.units import Mbps

#: Paper values: (throughput band, latency band) per app.
PAPER = {
    "bcp": {
        "server": ((0.011, 0.22), (60, 750)),
        "ms_ft_off": (0.54, 32),
        "ms_departures": (0.52, 36),
        "ms_failures": (0.48, 39),
    },
    "signalguru": {
        "server": ((0.018, 0.36), (40, 540)),
        "ms_ft_off": (0.8, 25),
        "ms_departures": (0.74, 30),
        "ms_failures": (0.64, 36),
    },
}


def run_server_point(app_name: str, uplink_mbps: float, duration_s: float = 900.0,
                     warmup_s: float = 150.0) -> Tuple[float, float]:
    """One server-DSPS run at a fixed per-phone uplink rate."""
    cellular = CellularConfig(
        uplink_phone_bps=(Mbps(uplink_mbps), Mbps(uplink_mbps)),
        uplink_capacity_bps=Mbps(max(1.5, uplink_mbps * 4)),
    )
    dsps = ServerDSPS(
        create_app(app_name),
        ServerDSPSConfig(cellular=cellular, master_seed=3),
    )
    dsps.run(duration_s)
    m = dsps.metrics(warmup_s=warmup_s)
    rm = m.region("dc")
    return rm.throughput_tps, rm.mean_latency_s


def run_table1(app_name: str, duration_s: float = 900.0) -> Dict[str, Tuple]:
    """All Table I rows for one application."""
    results: Dict[str, Tuple] = {}

    # Server band: worst and best measured uplink.
    lo = run_server_point(app_name, 0.016, duration_s)
    hi = run_server_point(app_name, 0.32, duration_s)
    results["server"] = (
        (min(lo[0], hi[0]), max(lo[0], hi[0])),
        (min(lo[1], hi[1]), max(lo[1], hi[1])),
    )

    # FT off is Fig. 8's fault-free base case at this duration.
    base_spec = dataclasses.replace(
        scenarios.get("paper-fig8"), duration_s=duration_s)
    base = case_to_type(run_case(base_spec, app_name, "base", 3))
    results["ms_ft_off"] = (base.throughput, base.latency_s)

    # "A phone leaves its region every five minutes" / "a phone fails
    # every five minutes": recurring faults, one per checkpoint period,
    # hitting non-source compute phones in rotation.
    results["ms_departures"] = run_ms_recurring(
        app_name, "depart", duration_s=duration_s)
    results["ms_failures"] = run_ms_recurring(
        app_name, "fail", duration_s=duration_s)
    return results


#: Non-source compute-phone indices hit by the recurring faults.
FAULT_ROTATION = [3, 4, 5, 6, 2]


def run_ms_recurring(
    app_name: str, mode: str, duration_s: float = 900.0,
    fault_period_s: float = 300.0, warmup_s: float = 150.0, seed: int = 3,
) -> Tuple[float, float]:
    """MobiStreams under one fault per checkpoint period (Table I rows
    2-3): a crash (``mode="fail"``) or departure (``"depart"``) at every
    period boundary before the end, with a spare phone per fault."""
    n_events = max(1, int(duration_s // fault_period_s) - 1)
    kind = "crash" if mode == "fail" else "depart"
    spec = ScenarioSpec(
        name=f"table1-{mode}",
        duration_s=duration_s,
        warmup_s=warmup_s,
        idle_per_region=n_events + 2,
        checkpoint_period_s=fault_period_s,
        events=tuple(
            EventSpec(kind=kind, time=fault_period_s * (i + 1), phones=(idx,))
            for i, idx in enumerate(FAULT_ROTATION[:n_events])
        ),
        matrix=MatrixSpec(apps=(app_name,), schemes=("ms-8",), seeds=(seed,)),
    )
    case = case_to_type(run_case(spec, app_name, "ms-8", seed))
    return case.throughput, case.latency_s


def report(duration_s: float = 900.0) -> str:
    """The printable Table I reproduction."""
    sections: List[str] = []
    for app_name in ("bcp", "signalguru"):
        measured = run_table1(app_name, duration_s)
        paper = PAPER[app_name]
        rows = []
        (tp_lo, tp_hi), (lat_lo, lat_hi) = measured["server"]
        p_tp, p_lat = paper["server"]
        rows.append([
            "server-based DSPS",
            f"{p_tp[0]}~{p_tp[1]}", f"{tp_lo:.3f}~{tp_hi:.3f}",
            f"{p_lat[0]}~{p_lat[1]}", f"{lat_lo:.0f}~{lat_hi:.0f}",
        ])
        for key, label in (
            ("ms_ft_off", "MobiStreams (FT off)"),
            ("ms_departures", "MobiStreams (departure/5min)"),
            ("ms_failures", "MobiStreams (failure/5min)"),
        ):
            tput, lat = measured[key]
            p_tput, p_lat_v = paper[key]
            rows.append([label, f"{p_tput}", f"{tput:.3f}", f"{p_lat_v}", f"{lat:.0f}"])
        sections.append(format_table(
            ["deployment", "paper tput (t/s)", "measured tput", "paper lat (s)", "measured lat"],
            rows, title=f"Table I — {app_name}",
        ))
    return "\n\n".join(sections)
