"""Fig. 10: fault-tolerance data volumes, normalized to MobiStreams.

(a) bytes retained for input/source preservation — prior schemes retain
    every operator's outputs; MobiStreams retains only source input.
(b) bytes sent over the network for checkpointing/replication — rep-2
    duplicates the whole dataflow; dist-n unicasts n state copies;
    local sends nothing; MobiStreams broadcasts each state once (plus
    bitmap/TCP-tree overhead).

The volumes come from Fig. 8's fault-free cases (:func:`fig8.run_fig8`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.fig8 import APPS, SCHEME_ORDER
from repro.results import ResultSet
from repro.util.tables import format_table

#: Paper values normalized to ms = 1.
PAPER_PRESERVATION = {
    "signalguru": {"base": 0.0, "rep-2": 0.0, "local": 4.96, "dist-1": 4.11,
                   "dist-2": 3.36, "dist-3": 2.41, "ms-8": 1.0},
    "bcp": {"base": 0.0, "rep-2": 0.0, "local": 8.23, "dist-1": 6.12,
            "dist-2": 3.09, "dist-3": 0.41, "ms-8": 1.0},
}
PAPER_CKPT_NETWORK = {
    "signalguru": {"base": 0.0, "rep-2": 6.97, "local": 0.0, "dist-1": 0.76,
                   "dist-2": 1.52, "dist-3": 2.28, "ms-8": 1.0},
    "bcp": {"base": 0.0, "rep-2": 8.82, "local": 0.0, "dist-1": 0.71,
            "dist-2": 1.42, "dist-3": 2.13, "ms-8": 1.0},
}


def relative(cases: ResultSet) -> Dict[str, Dict[str, float]]:
    """One app's relative preserved/ft-network bytes per scheme
    (ms-8 = 1)."""
    # The paper's Fig. 10 normalizer: ms-8 = 1, with the denominator
    # floored at one byte so an all-zero baseline stays finite.
    rel = cases.relative_to("ms-8", axis="scheme",
                            metrics=("preserved_bytes", "ft_network_bytes"),
                            floor=1.0)
    return {
        scheme: {"preservation": values["preserved_bytes"],
                 "ckpt_network": values["ft_network_bytes"]}
        for scheme, values in rel.items()
    }


def report(cases: ResultSet) -> str:
    """The printable Fig. 10 reproduction from Fig. 8's cases."""
    sections: List[str] = []
    for app_name in APPS:
        rel = relative(cases.filter(app=app_name))
        rows = []
        for label in SCHEME_ORDER:
            rows.append([
                label,
                f"{PAPER_PRESERVATION[app_name][label]:.2f}",
                f"{rel[label]['preservation']:.2f}",
                f"{PAPER_CKPT_NETWORK[app_name][label]:.2f}",
                f"{rel[label]['ckpt_network']:.2f}",
            ])
        sections.append(format_table(
            ["scheme", "10a paper", "10a measured", "10b paper", "10b measured"],
            rows, title=f"Fig. 10 — {app_name} (relative to ms-8 = 1)",
        ))
    return "\n\n".join(sections)
