"""Fig. 8 bench: steady-state overhead of every FT scheme.

Run: ``pytest benchmarks/bench_fig8.py --benchmark-only -s``
"""

import pytest

from repro.bench.fig8 import PAPER_LATENCY, SCHEME_ORDER, relative, run_fig8
from repro.scenarios import MatrixSpec

DURATION = 900.0


def run_app(benchmark, app_name):
    """Fig. 8's seven cases for one app, timed as one benchmark round."""
    matrix = MatrixSpec(apps=(app_name,), schemes=SCHEME_ORDER)
    return benchmark.pedantic(
        lambda: run_fig8(DURATION, matrix=matrix), rounds=1, iterations=1
    )


@pytest.mark.parametrize("app_name", ["bcp", "signalguru"])
def test_fig8_scheme_sweep(benchmark, app_name):
    rel = relative(run_app(benchmark, app_name))
    print(f"\n[fig8/{app_name}] relative to base:")
    for label in SCHEME_ORDER:
        print(f"  {label:7s} tput {rel[label]['throughput']*100:4.0f}%  "
              f"lat {rel[label]['latency']:.2f}x (paper lat "
              f"{PAPER_LATENCY[app_name][label]:.2f}x)")

    # Shape assertions from the paper:
    # 1. local is the upper bound (closest to base).
    others = [l for l in SCHEME_ORDER if l not in ("base", "local")]
    assert all(rel["local"]["latency"] <= rel[o]["latency"] * 1.05 for o in others)
    # 2. dist-n latency grows monotonically with n.
    assert (rel["dist-1"]["latency"] <= rel["dist-2"]["latency"]
            <= rel["dist-3"]["latency"])
    # 3. MobiStreams beats dist-2, dist-3 and rep-2 on latency.
    for o in ("dist-2", "dist-3", "rep-2"):
        assert rel["ms-8"]["latency"] < rel[o]["latency"]
    # 4. rep-2 pays the largest throughput penalty.
    assert rel["rep-2"]["throughput"] == min(
        rel[o]["throughput"] for o in others
    )
    # 5. MobiStreams' throughput stays within a few percent of base.
    assert rel["ms-8"]["throughput"] > 0.9


@pytest.mark.parametrize("app_name", ["bcp"])
def test_fig8_headline_vs_prior_art(benchmark, app_name):
    """ms vs {rep-2, dist-n}: large tput gain, large latency cut."""
    rel = relative(run_app(benchmark, app_name))
    prior = ["rep-2", "dist-1", "dist-2", "dist-3"]
    tput_gain = sum(
        rel["ms-8"]["throughput"] / rel[o]["throughput"] - 1 for o in prior
    ) / len(prior)
    lat_cut = sum(1 - rel["ms-8"]["latency"] / rel[o]["latency"] for o in prior) / len(prior)
    print(f"\n[fig8/{app_name}] ms vs prior art: +{tput_gain*100:.0f}% tput, "
          f"-{lat_cut*100:.0f}% latency (paper: +230%, -40%)")
    assert tput_gain > 0.10
    assert lat_cut > 0.15
