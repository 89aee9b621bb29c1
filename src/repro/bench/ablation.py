"""Ablation studies on MobiStreams' design choices.

The paper motivates four design decisions without sweeping them; these
ablations quantify each one on the simulated substrate:

* **Broadcast vs unicast distribution** (Section III-C): one UDP
  broadcast reaches every phone for one airtime cost, while dist-n-style
  unicasts pay per copy — :func:`broadcast_vs_unicast`.
* **The cost/gain stopping rule**: against fixed round counts (including
  0 = pure TCP tree) — :func:`sweep_stopping_rule`.
* **1 KB blocks**: datagrams above the MTU fragment, and one lost
  fragment drops the datagram — :func:`sweep_block_size`.
* **The 5-minute checkpoint period** (Section III-D: "catch-up time
  varies with the checkpoint period") — :func:`sweep_checkpoint_period`.

Each function returns a list of result-dict rows; ``report_*`` helpers
render the paper-style text tables.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.checkpoint.broadcast import BroadcastSettings, broadcast_checkpoint
from repro.net.loss import BernoulliLoss
from repro.net.packet import Message
from repro.net.wifi import Unreachable, WifiCell, WifiConfig
from repro.scenarios import (
    EventSpec,
    MatrixSpec,
    ScenarioSpec,
    case_to_type,
    run_case,
)
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry
from repro.util.tables import format_table
from repro.util.units import KB, MB, Mbps


# -- standalone broadcast rig ---------------------------------------------------
def _make_cell(n_receivers: int, loss: float, bandwidth_mbps: float = 2.0,
               seed: int = 11) -> tuple:
    """A fresh cell with one sender and ``n_receivers`` receivers."""
    sim = Simulator()
    rng = RngRegistry(seed)
    cfg = WifiConfig(
        bandwidth_bps=Mbps(bandwidth_mbps),
        loss_factory=lambda: BernoulliLoss(loss),
        mean_loss=loss,
    )
    cell = WifiCell(sim, rng, cfg, name="ablate")
    cell.join("sender", lambda msg: None)
    for i in range(n_receivers):
        cell.join(f"rx{i}", lambda msg: None)
    return sim, cell


def _run_broadcast(sim: Simulator, cell: WifiCell, size: int,
                   settings: Optional[BroadcastSettings] = None):
    """Drive one broadcast_checkpoint to completion; return its outcome."""
    box: Dict[str, Any] = {}

    def runner():
        out = yield from broadcast_checkpoint(
            sim, cell, "sender", size, settings=settings)
        box["out"] = out

    sim.process(runner(), name="ablate.bcast").defuse()
    sim.run()
    return box["out"]


def _run_unicasts(sim: Simulator, cell: WifiCell, size: int,
                  receivers: Sequence[str]) -> Dict[str, float]:
    """dist-n-style distribution: one reliable unicast per receiver."""
    stats = {"bytes": 0.0, "duration": 0.0}

    def runner():
        t0 = sim.now
        for rx in receivers:
            msg = Message(src="sender", dst=rx, size=size, kind="ckpt_copy",
                          payload=("copy",))
            try:
                yield from cell.tcp_unicast(msg)
            except Unreachable:  # pragma: no cover - receivers are static
                continue
            stats["bytes"] += size
        stats["duration"] = sim.now - t0

    sim.process(runner(), name="ablate.uni").defuse()
    sim.run()
    return stats


# -- ablation 1: broadcast vs unicast -----------------------------------------------
def broadcast_vs_unicast(
    n_receivers_list: Sequence[int] = (1, 2, 4, 7, 9),
    size: int = 4 * MB,
    loss: float = 0.08,
    seed: int = 11,
) -> List[Dict[str, float]]:
    """Network bytes to place one checkpoint on n receivers, both ways.

    The crossover the paper's design banks on: unicast cost grows ~n·size
    while broadcast cost is ~size·(1 + loss overhead), so broadcast wins
    from n = 2 on.
    """
    rows = []
    for n in n_receivers_list:
        sim, cell = _make_cell(n, loss, seed=seed)
        out = _run_broadcast(sim, cell, size)
        sim_u, cell_u = _make_cell(n, loss, seed=seed)
        uni = _run_unicasts(sim_u, cell_u, size,
                            [f"rx{i}" for i in range(n)])
        rows.append({
            "n_receivers": n,
            "broadcast_bytes": float(out.network_bytes),
            "unicast_bytes": uni["bytes"],
            "ratio": uni["bytes"] / max(1.0, float(out.network_bytes)),
            "broadcast_s": out.duration,
            "unicast_s": uni["duration"],
        })
    return rows


# -- ablation 2: the stopping rule ---------------------------------------------------
def sweep_stopping_rule(
    rounds_options: Sequence[Optional[int]] = (None, 0, 1, 2, 4, 8),
    size: int = 4 * MB,
    n_receivers: int = 7,
    loss: float = 0.08,
    seed: int = 11,
) -> List[Dict[str, float]]:
    """Total bytes and duration per stopping rule (None = cost/gain)."""
    rows = []
    for rounds in rounds_options:
        sim, cell = _make_cell(n_receivers, loss, seed=seed)
        settings = BroadcastSettings(udp_rounds=rounds)
        out = _run_broadcast(sim, cell, size, settings)
        rows.append({
            "rule": "cost/gain" if rounds is None else f"fixed-{rounds}",
            "udp_rounds": len(out.rounds),
            "udp_bytes": float(out.udp_bytes),
            "tcp_bytes": float(out.tcp_bytes),
            "total_bytes": float(out.network_bytes),
            "duration_s": out.duration,
            "all_complete": out.all_complete,
        })
    return rows


# -- ablation 3: block size ---------------------------------------------------------
def sweep_block_size(
    block_sizes: Sequence[int] = (256, KB, 4 * KB, 16 * KB, 64 * KB),
    size: int = 4 * MB,
    n_receivers: int = 7,
    loss: float = 0.02,
    seed: int = 11,
) -> List[Dict[str, float]]:
    """Effect of the UDP block size (Section III-C's 1 KB choice).

    Tiny blocks pay per-datagram header overhead; big blocks fragment at
    the MTU and a single lost fragment drops the whole block.  1 KB sits
    near the sweet spot.
    """
    rows = []
    for bs in block_sizes:
        sim, cell = _make_cell(n_receivers, loss, seed=seed)
        out = _run_broadcast(sim, cell, size, BroadcastSettings(block_size=bs))
        rows.append({
            "block_size": bs,
            "total_bytes": float(out.network_bytes),
            "udp_bytes": float(out.udp_bytes),
            "tcp_bytes": float(out.tcp_bytes),
            "duration_s": out.duration,
            "overhead": float(out.network_bytes) / size,
        })
    return rows


# -- ablation 4: loss-rate sensitivity -------------------------------------------------
def sweep_loss(
    loss_rates: Sequence[float] = (0.0, 0.02, 0.08, 0.2, 0.4),
    size: int = 4 * MB,
    n_receivers: int = 7,
    seed: int = 11,
) -> List[Dict[str, float]]:
    """Broadcast cost as the channel degrades."""
    rows = []
    for loss in loss_rates:
        sim, cell = _make_cell(n_receivers, loss, seed=seed)
        out = _run_broadcast(sim, cell, size)
        rows.append({
            "loss": loss,
            "udp_rounds": len(out.rounds),
            "total_bytes": float(out.network_bytes),
            "overhead": float(out.network_bytes) / size,
            "duration_s": out.duration,
        })
    return rows


# -- ablation 5: burstiness at fixed mean loss ------------------------------------------
def sweep_burstiness(
    burst_lengths: Sequence[float] = (1.0, 4.0, 16.0, 64.0),
    mean_loss: float = 0.08,
    size: int = 4 * MB,
    n_receivers: int = 7,
    seed: int = 11,
) -> List[Dict[str, float]]:
    """Bursty (Gilbert-Elliott) vs i.i.d. loss at the same mean rate.

    Real radio fades are bursty; a burst concentrates a receiver's
    misses on contiguous blocks instead of spreading them, which changes
    how fast the ANDed-bitmap retransmission set shrinks.
    ``burst_length = 1`` is effectively i.i.d.
    """
    from repro.net.loss import GilbertElliottLoss

    rows = []
    for burst in burst_lengths:
        sim = Simulator()
        rng = RngRegistry(seed)
        cfg = WifiConfig(
            bandwidth_bps=Mbps(2.0),
            loss_factory=lambda b=burst: GilbertElliottLoss.from_mean(
                mean_loss=mean_loss, mean_burst=b),
            mean_loss=mean_loss,
        )
        cell = WifiCell(sim, rng, cfg, name="ablate")
        cell.join("sender", lambda msg: None)
        for i in range(n_receivers):
            cell.join(f"rx{i}", lambda msg: None)
        out = _run_broadcast(sim, cell, size)
        rows.append({
            "mean_burst": burst,
            "udp_rounds": len(out.rounds),
            "total_bytes": float(out.network_bytes),
            "overhead": float(out.network_bytes) / size,
            "duration_s": out.duration,
        })
    return rows


# -- ablation 6: checkpoint period ----------------------------------------------------
def sweep_checkpoint_period(
    periods_s: Sequence[float] = (60.0, 150.0, 300.0, 600.0),
    app_name: str = "bcp",
    duration_s: float = 1800.0,
    crash_at: float = 1200.0,
    seed: int = 3,
) -> List[Dict[str, float]]:
    """Steady overhead vs recovery cost across checkpoint periods: one
    ms-8 scenario per period, each crashing phone 3 at ``crash_at``.

    Longer periods mean fewer broadcasts (lower steady network cost) but
    more preserved input to replay: "the catch-up time should be no more
    than a checkpoint period" (Section III-D).
    """
    rows = []
    for period in periods_s:
        spec = ScenarioSpec(
            name=f"ablation-period-{period:g}", duration_s=duration_s,
            warmup_s=duration_s / 6.0, idle_per_region=4,
            checkpoint_period_s=period,
            events=(EventSpec(kind="crash", time=crash_at, phones=(3,)),),
            matrix=MatrixSpec(apps=(app_name,), schemes=("ms-8",),
                              seeds=(seed,)),
        )
        case = case_to_type(run_case(spec, app_name, "ms-8", seed))
        rows.append({
            "period_s": period,
            "throughput": case.throughput,
            "latency_s": case.latency_s,
            "preserved_bytes": case.preserved_bytes,
            "ft_network_bytes": case.ft_network_bytes,
            "recoveries": case.recoveries,
        })
    return rows


# -- reports -----------------------------------------------------------------------
def report() -> str:
    """All ablations as text tables (as ``python -m repro bench all`` prints them)."""
    sections = []

    rows = broadcast_vs_unicast()
    sections.append(format_table(
        ["receivers", "broadcast MB", "unicast MB", "unicast/broadcast"],
        [[r["n_receivers"], f"{r['broadcast_bytes'] / MB:.2f}",
          f"{r['unicast_bytes'] / MB:.2f}", f"{r['ratio']:.2f}x"] for r in rows],
        title="Ablation — broadcast vs unicast checkpoint distribution",
    ))

    rows = sweep_stopping_rule()
    sections.append(format_table(
        ["rule", "udp rounds", "udp MB", "tcp MB", "total MB", "duration s"],
        [[r["rule"], r["udp_rounds"], f"{r['udp_bytes'] / MB:.2f}",
          f"{r['tcp_bytes'] / MB:.2f}", f"{r['total_bytes'] / MB:.2f}",
          f"{r['duration_s']:.1f}"] for r in rows],
        title="Ablation — UDP stopping rule (cost/gain vs fixed rounds)",
    ))

    rows = sweep_block_size()
    sections.append(format_table(
        ["block B", "total MB", "overhead", "duration s"],
        [[r["block_size"], f"{r['total_bytes'] / MB:.2f}",
          f"{r['overhead']:.2f}x", f"{r['duration_s']:.1f}"] for r in rows],
        title="Ablation — UDP block size (MTU fragmentation vs headers)",
    ))

    rows = sweep_loss()
    sections.append(format_table(
        ["loss", "udp rounds", "total MB", "overhead"],
        [[f"{r['loss']:.2f}", r["udp_rounds"], f"{r['total_bytes'] / MB:.2f}",
          f"{r['overhead']:.2f}x"] for r in rows],
        title="Ablation — loss-rate sensitivity of the broadcast",
    ))

    rows = sweep_burstiness()
    sections.append(format_table(
        ["mean burst", "udp rounds", "total MB", "overhead"],
        [[f"{r['mean_burst']:.0f}", r["udp_rounds"],
          f"{r['total_bytes'] / MB:.2f}", f"{r['overhead']:.2f}x"]
         for r in rows],
        title="Ablation — loss burstiness (Gilbert-Elliott) at 8% mean loss",
    ))

    rows = sweep_checkpoint_period(duration_s=1200.0, crash_at=800.0)
    sections.append(format_table(
        ["period s", "tput t/s", "latency s", "preserved MB", "ckpt-net MB"],
        [[f"{r['period_s']:.0f}", f"{r['throughput']:.3f}",
          f"{r['latency_s']:.1f}", f"{r['preserved_bytes'] / MB:.1f}",
          f"{r['ft_network_bytes'] / MB:.1f}"] for r in rows],
        title="Ablation — checkpoint period (steady cost vs catch-up)",
    ))
    return "\n\n".join(sections)
