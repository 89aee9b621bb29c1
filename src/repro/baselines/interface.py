"""The fault-tolerance scheme interface.

A scheme is attached to exactly one region and receives *hooks* from the
node runtimes and the controller.  It owns all FT policy: what data to
preserve, when and where to checkpoint, how to recover from a failure
set, and how to handle departures.

Two counters are the scheme's measurement contract (Fig. 10):

* ``ft.preserved_bytes`` — unique bytes retained for input/source
  preservation (every retained tuple counted once when it enters a
  preservation buffer).
* ``ft.network_bytes`` — bytes sent over any network *because of* fault
  tolerance (checkpoint state, bitmaps, acks, replica traffic).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.core.controller import UNRECOVERABLE

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import NodeRuntime
    from repro.core.region import Region
    from repro.core.tuples import StreamTuple, Token
    from repro.net.packet import Message


class FaultToleranceScheme:
    """Base scheme: every hook is a no-op (suitable subclassing surface)."""

    #: Scheme label used in reports (matches the paper's figure labels).
    name: str = "scheme"
    #: Dataflow chains this scheme needs (rep-k uses k).
    replication_factor: int = 1
    #: Whether the controller should drive a periodic checkpoint clock.
    wants_checkpoint_clock: bool = False
    #: The recovery promise the invariant harness enforces — a name from
    #: :data:`repro.verify.contracts.CONTRACTS`.  ``"none"`` (the
    #: default) opts out of delivery checking entirely.
    delivery_contract: str = "none"

    def __init__(self) -> None:
        self.region: Optional["Region"] = None

    # -- lifecycle ----------------------------------------------------------
    def attach(self, region: "Region") -> None:
        """Bind to the region; start any periodic processes here."""
        self.region = region
        # Resolved once: the preservation and replication hooks run per tuple.
        self._preserved = region.trace.counter("ft.preserved_bytes")
        self._ft_network = region.trace.counter("ft.network_bytes")

    @property
    def trace(self):
        """The region's trace (valid after :meth:`attach`)."""
        return self.region.trace

    @property
    def sim(self):
        """The region's simulator (valid after :meth:`attach`)."""
        return self.region.sim

    # -- measurement helpers ---------------------------------------------------
    def count_preserved(self, n_bytes: float) -> None:
        """Account bytes entering a preservation buffer (Fig. 10a)."""
        self._preserved.add(n_bytes)

    def count_ft_network(self, n_bytes: float) -> None:
        """Account fault-tolerance bytes on the wire (Fig. 10b)."""
        self._ft_network.add(n_bytes)

    def chain_active(self, chain: int) -> bool:
        """Whether a replication chain is still routing (rep-k marks dead
        chains after an unrecovered replica loss).  Factor-1 schemes always
        return True for chain 0."""
        return True

    # -- dataflow hooks (called from node runtimes) ------------------------------
    def on_source_ingest(self, node: "NodeRuntime", op_name: str, tup: "StreamTuple") -> None:
        """A source operator ingested external or inter-region data."""

    def on_source_copy(self, node: "NodeRuntime", op_name: str, tup: "StreamTuple") -> None:
        """A source tuple was forwarded to another chain's source replica."""

    def on_emit(
        self, node: "NodeRuntime", from_op: str, to_op: str,
        tup: "StreamTuple", remote: bool,
    ) -> None:
        """An operator emitted a tuple to a downstream operator."""

    def on_processed(self, node: "NodeRuntime", op_name: str, tup: "StreamTuple") -> None:
        """An operator finished processing a tuple."""

    def on_token(self, node: "NodeRuntime", channel: Any, token: "Token") -> None:
        """A checkpoint token arrived on a node channel (MobiStreams only)."""

    def on_node_control(self, node: "NodeRuntime", channel: Any, payload: Tuple) -> None:
        """Scheme-specific control traffic delivered to a node."""

    def on_region_message(self, phone_id: str, msg: "Message") -> None:
        """Every message delivered to any phone of the region (snooping)."""

    # -- control-plane hooks -------------------------------------------------------
    def request_checkpoint(self) -> None:
        """Controller-triggered checkpoint request (Section III-B step 1)."""

    def on_failure(self, failed_ids: List[str]):
        """React to a batch of simultaneous failures.

        Returns a generator to be run as the recovery process, or
        :data:`~repro.core.controller.UNRECOVERABLE` when the failure set
        exceeds the scheme's tolerance.  The default (no FT) loses the
        region.
        """
        return UNRECOVERABLE

    def on_departure(self, phone_id: str):
        """React to a confirmed departure.

        Prior schemes "cannot handle node departures (they are designed
        for servers)" — the default treats a departure like a failure.
        """
        return self.on_failure([phone_id])

    def on_self_report(self, phone_id: str):
        """React to a phone reporting its own imminent failure (chronic
        battery, Section III-D).  Returns a handoff generator, or None
        when the scheme has no proactive path and must wait for the
        actual crash (the default for all prior schemes)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"
