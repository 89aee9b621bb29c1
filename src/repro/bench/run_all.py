"""Regenerate the paper's tables and figures (``python -m repro bench``)."""

from __future__ import annotations

import functools
import time

from repro.bench import ablation, fig8, fig9, fig10, table1


def run_all(artifact: str = "all", quick: bool = False) -> None:
    """Print one artifact (or every one, for ``"all"``) as
    paper-vs-measured tables; ``quick`` shortens the simulations."""
    duration = 600.0 if quick else 1200.0
    fig9_n = 4 if quick else 8
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
    selected = list(artifacts) if artifact == "all" else [artifact]
    for name in selected:
        t0 = time.perf_counter()
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        print(artifacts[name]())
        print(f"[{name} regenerated in {time.perf_counter() - t0:.1f}s wall]")
