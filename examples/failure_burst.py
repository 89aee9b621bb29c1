#!/usr/bin/env python
"""Burst failures: the paper's headline fault-tolerance scenario.

"In a smartphone platform, it is common that several phones fail
simultaneously" (Section I).  This demo crashes 1..5 of BCP's eight
phones at once under each fault-tolerance scheme and reports who
survives — the essence of Fig. 9.  Every cell is the
``paper-fig9-burst`` scenario with its burst resized to n phones.  Run::

    python examples/failure_burst.py
"""

from repro.bench.fig9 import FAIL_ORDER, TOLERANCE, run_fig9_point

SCHEMES = ["rep-2", "dist-1", "dist-2", "dist-3", "ms-8"]
DURATION = 600.0
FAULT_AT = 300.0


def main():
    print("BCP, 8 phones/region; n phones crash simultaneously at "
          f"t={FAULT_AT:.0f}s (phones {FAIL_ORDER[:5]}...)\n")
    header = f"{'burst n':>8s} | " + " | ".join(f"{s:^12s}" for s in SCHEMES)
    print(header)
    print("-" * len(header))
    for n in (1, 2, 3, 4, 5):
        cells = []
        for scheme in SCHEMES:
            tol = TOLERANCE[scheme]
            if tol is not None and n > tol:
                cells.append(f"{'— dead —':^12s}")
                continue
            tput, lat, ok = run_fig9_point(
                "bcp", scheme, n, mode="fail",
                duration_s=DURATION, fault_time=FAULT_AT)
            cells.append(f"{tput:5.3f} t/s " + ("✓" if ok else "✗"))
        print(f"{n:>8d} | " + " | ".join(f"{c:^12s}" for c in cells))

    print("""
Reading the table:
  * rep-2 tolerates exactly one failure; dist-n exactly n.
  * ms-8 (MobiStreams) recovers every burst at ~constant cost: every
    phone holds the MRC checkpoint and the preserved input, so a 5-node
    restore is as parallel as a 1-node one (Section III-D).""")


if __name__ == "__main__":
    main()
