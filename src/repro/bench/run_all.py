"""Regenerate every table and figure: ``python -m repro.bench.run_all``.

Pass ``--quick`` for shorter simulations (smoke-check the shapes).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from repro.bench import ablation, fig8, fig9, fig10, table1


def main(argv=None) -> int:
    """Run all artifacts, printing paper-vs-measured tables."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="shorter runs (~4x faster, noisier numbers)")
    parser.add_argument("--only",
                        choices=["table1", "fig8", "fig9", "fig10", "ablation"],
                        help="run a single artifact")
    args = parser.parse_args(argv)

    duration = 600.0 if args.quick else 1200.0
    fig9_n = 4 if args.quick else 8
    # Fig. 8 and Fig. 10 read the same 14 fault-free cases: simulate
    # them once, for whichever of the two renders first.
    fig8_cases = functools.cache(lambda: fig8.run_fig8(duration))

    artifacts = {
        "table1": lambda: table1.report(duration_s=min(duration, 900.0)),
        "fig8": lambda: fig8.report(fig8_cases()),
        "fig9": lambda: fig9.report(duration_s=min(duration, 900.0), max_n=fig9_n),
        "fig10": lambda: fig10.report(fig8_cases()),
        "ablation": ablation.report,
    }
    selected = [args.only] if args.only else list(artifacts)
    for name in selected:
        t0 = time.perf_counter()
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        print(artifacts[name]())
        print(f"[{name} regenerated in {time.perf_counter() - t0:.1f}s wall]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
