"""Ablation benches: sweeps of the design choices the paper asserts
without measuring (see :mod:`repro.bench.ablation`).

Run: ``pytest benchmarks/bench_ablation.py --benchmark-only -s``
"""

import pytest

from repro.bench.ablation import (
    broadcast_vs_unicast,
    sweep_block_size,
    sweep_burstiness,
    sweep_checkpoint_period,
    sweep_loss,
    sweep_stopping_rule,
)
from repro.util.units import KB, MB


def test_broadcast_vs_unicast(benchmark):
    rows = benchmark.pedantic(
        lambda: broadcast_vs_unicast((1, 2, 4, 7, 9)), rounds=1, iterations=1)
    print("\n[ablation/broadcast-vs-unicast]")
    for r in rows:
        print(f"  n={r['n_receivers']}: broadcast {r['broadcast_bytes'] / MB:6.2f} MB"
              f"  unicast {r['unicast_bytes'] / MB:6.2f} MB  ({r['ratio']:.2f}x)")
    by_n = {r["n_receivers"]: r for r in rows}
    # Unicast is cheaper only for a single receiver.
    assert by_n[1]["ratio"] < 1.1
    # From two receivers on, one broadcast beats n unicasts...
    assert by_n[2]["ratio"] > 1.3
    # ...and the advantage grows roughly linearly with n.
    assert by_n[9]["ratio"] > by_n[4]["ratio"] > by_n[2]["ratio"]
    assert by_n[9]["ratio"] > 4.0


def test_stopping_rule(benchmark):
    rows = benchmark.pedantic(
        lambda: sweep_stopping_rule((None, 0, 1, 2, 4, 8)), rounds=1, iterations=1)
    print("\n[ablation/stopping-rule]")
    for r in rows:
        print(f"  {r['rule']:<10s} rounds={r['udp_rounds']}  total "
              f"{r['total_bytes'] / MB:6.2f} MB  {r['duration_s']:6.1f} s")
    by_rule = {r["rule"]: r for r in rows}
    best_fixed = min(r["total_bytes"] for r in rows if r["rule"] != "cost/gain")
    cg = by_rule["cost/gain"]["total_bytes"]
    # The adaptive rule lands within 10% of the best fixed setting,
    # without knowing the channel in advance.
    assert cg <= best_fixed * 1.10
    # Pure TCP-tree distribution (0 UDP rounds) is far more expensive.
    assert by_rule["fixed-0"]["total_bytes"] > 3.0 * cg
    # Every rule still delivers the full checkpoint everywhere.
    assert all(r["all_complete"] for r in rows)


def test_block_size(benchmark):
    rows = benchmark.pedantic(
        lambda: sweep_block_size((256, KB, 4 * KB, 16 * KB, 64 * KB)),
        rounds=1, iterations=1)
    print("\n[ablation/block-size]")
    for r in rows:
        print(f"  block {r['block_size']:>6d} B: overhead {r['overhead']:.2f}x "
              f" {r['duration_s']:6.1f} s")
    by_bs = {r["block_size"]: r for r in rows}
    # The paper's 1 KB block beats both tiny (header-bound) and huge
    # (fragmentation-bound) settings.
    assert by_bs[KB]["overhead"] <= by_bs[256]["overhead"]
    assert by_bs[KB]["overhead"] < by_bs[16 * KB]["overhead"]
    assert by_bs[64 * KB]["overhead"] > 2.0 * by_bs[KB]["overhead"]


def test_loss_sensitivity(benchmark):
    rows = benchmark.pedantic(
        lambda: sweep_loss((0.0, 0.02, 0.08, 0.2, 0.4)), rounds=1, iterations=1)
    print("\n[ablation/loss-sweep]")
    for r in rows:
        print(f"  loss {r['loss']:.2f}: rounds={r['udp_rounds']} "
              f"overhead {r['overhead']:.2f}x")
    overheads = [r["overhead"] for r in rows]
    # Overhead grows monotonically with channel loss...
    assert all(a <= b * 1.02 for a, b in zip(overheads, overheads[1:]))
    # ...from ~none on a clean channel to a few x on a terrible one.
    assert overheads[0] < 1.1
    assert overheads[-1] > 2.0


def test_loss_burstiness(benchmark):
    rows = benchmark.pedantic(
        lambda: sweep_burstiness((1.0, 4.0, 16.0, 64.0)), rounds=1, iterations=1)
    print("\n[ablation/burstiness] (8% mean loss)")
    for r in rows:
        print(f"  burst {r['mean_burst']:5.0f}: rounds={r['udp_rounds']} "
              f"overhead {r['overhead']:.2f}x")
    # At a fixed mean rate, burstiness shifts *where* losses land but the
    # multi-phase protocol absorbs it: overhead stays in a narrow band
    # around the i.i.d. figure and never blows up.
    base = rows[0]["overhead"]
    for r in rows:
        assert 0.7 * base < r["overhead"] < 1.5 * base
        assert r["udp_rounds"] <= 6


def test_checkpoint_period(benchmark):
    rows = benchmark.pedantic(
        lambda: sweep_checkpoint_period((60.0, 150.0, 300.0, 600.0),
                                        duration_s=1800.0, crash_at=1200.0),
        rounds=1, iterations=1)
    print("\n[ablation/checkpoint-period]")
    for r in rows:
        print(f"  period {r['period_s']:5.0f} s: tput {r['throughput']:.3f} "
              f"lat {r['latency_s']:6.1f} s  preserved {r['preserved_bytes'] / MB:7.1f} MB"
              f"  ckpt-net {r['ft_network_bytes'] / MB:7.1f} MB")
    by_p = {r["period_s"]: r for r in rows}
    # Longer periods broadcast less state overall...
    assert by_p[600.0]["ft_network_bytes"] < by_p[60.0]["ft_network_bytes"]
    # ...and every period still recovers the injected failure.
    assert all(r["recoveries"] >= 1 for r in rows)
