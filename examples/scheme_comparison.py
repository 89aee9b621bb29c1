#!/usr/bin/env python
"""Compare every fault-tolerance scheme on one workload (Fig. 8 in small).

Runs base / rep-2 / local / dist-n / ms-8 on the BCP pipeline, without
faults, and prints relative throughput and latency.  The cases are the
``paper-fig8`` scenario cut down to BCP and ten minutes.  Run::

    python examples/scheme_comparison.py
"""

from repro.bench.fig8 import SCHEME_ORDER, relative, run_fig8
from repro.scenarios import MatrixSpec


def main() -> None:
    print("running 7 schemes x 10 simulated minutes of BCP...")
    cases = run_fig8(600.0, warmup_s=100.0,
                     matrix=MatrixSpec(apps=("bcp",), schemes=SCHEME_ORDER))
    rel = relative(cases)

    print(f"\n{'scheme':8s} {'tput':>7s} {'rel':>6s} {'latency':>9s} {'rel':>7s}")
    for case in cases:
        label = case.scheme
        print(f"{label:8s} {case.throughput:7.3f} {rel[label]['throughput']*100:5.0f}% "
              f"{case.latency_s:8.1f}s {rel[label]['latency']:6.2f}x")

    prior = ["rep-2", "dist-1", "dist-2", "dist-3"]
    lat_cut = sum(1 - rel["ms-8"]["latency"] / rel[p]["latency"] for p in prior) / len(prior)
    print(f"\nMobiStreams vs prior art (avg): {lat_cut * 100:.0f}% latency reduction")
    print("(the paper reports -40% latency, +230% throughput on its testbed)")


if __name__ == "__main__":
    main()
