"""Multi-host sweep fabric: coordinator/worker control plane.

A sweep's case matrix (spec digest × app × scheme × seed — already
content-addressed by the executor) is sharded over TCP workers by a
:class:`FabricCoordinator`; :class:`FabricWorker` processes lease
cases, execute them through the standard executor code path, and
stream payloads back.  Worker death is survived by lease re-queuing
with bounded retries; a case that keeps killing its workers is
quarantined rather than allowed to hang the sweep.  Merged artifacts
are byte-identical to serial runs — :func:`run_chaos` proves it by
SIGKILLing live workers mid-sweep.

Stdlib only: no dependency beyond what the simulator already needs.
"""

from repro.fabric.coordinator import (
    FabricCoordinator,
    FabricError,
)
from repro.fabric.ledger import CaseLedger
from repro.fabric.protocol import (
    FrameError,
    format_address,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.fabric.worker import FabricWorker

__all__ = [
    "CaseLedger",
    "FabricCoordinator",
    "FabricError",
    "FabricWorker",
    "FrameError",
    "format_address",
    "parse_address",
    "recv_frame",
    "run_chaos",
    "send_frame",
]


def run_chaos(*args, **kwargs):
    """Lazy re-export of :func:`repro.fabric.chaos.run_chaos` (keeps
    ``subprocess`` &co out of the import path of plain fabric use)."""
    from repro.fabric.chaos import run_chaos as _run_chaos
    return _run_chaos(*args, **kwargs)
