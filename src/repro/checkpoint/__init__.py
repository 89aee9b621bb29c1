"""MobiStreams fault tolerance: the paper's primary contribution.

Two techniques (Section III) reduce checkpointing overhead enough to make
a phone-based DSPS practical:

* **Token-triggered checkpointing** (:mod:`repro.checkpoint.token_protocol`)
  — source-injected tokens trickle down the node graph; each node
  snapshots when it holds tokens from every upstream channel, blocking
  only the token-bearing channels meanwhile.  No tuple is saved twice or
  missed.
* **Broadcast-based checkpointing** (:mod:`repro.checkpoint.broadcast`)
  — snapshots are pushed to every other phone with multi-phase unreliable
  UDP broadcast (1 KB blocks, per-receiver bitmaps, iterate while
  gain ≥ cost) plus a final reliable TCP-tree phase.

:class:`~repro.checkpoint.scheme.MobiStreamsScheme` composes them with
source preservation, whole-region recovery + catch-up (Section III-D) and
departure handling (urgent mode, state transfer, replacement —
Section III-E).
"""

from repro.checkpoint.broadcast import (
    BroadcastOutcome,
    BroadcastSettings,
    broadcast_checkpoint,
)
from repro.checkpoint.scheme import MobiStreamsScheme
from repro.checkpoint.snapshots import (
    adopt_array,
    freeze_array,
    freeze_state,
    snap_attr,
    thaw_state,
    writable,
)
from repro.checkpoint.store import CheckpointStore, PreservationStore
from repro.checkpoint.token_protocol import TokenTracker

__all__ = [
    "BroadcastOutcome",
    "BroadcastSettings",
    "CheckpointStore",
    "MobiStreamsScheme",
    "PreservationStore",
    "TokenTracker",
    "adopt_array",
    "broadcast_checkpoint",
    "freeze_array",
    "freeze_state",
    "snap_attr",
    "thaw_state",
    "writable",
]
