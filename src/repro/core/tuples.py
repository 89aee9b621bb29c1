"""Stream tuples and checkpoint tokens.

A *tuple* is the unit of data between operators (Section II-A).  A
*token* (Section III-B) is a tiny piece of control data embedded in the
dataflow — it travels through the same FIFO channels as tuples, so its
position in the stream marks the checkpoint cut exactly (the Chandy-
Lamport marker idea, specialized to a DAG).

:class:`StreamTuple` and :class:`Token` are ``__slots__`` classes rather
than dataclasses: a tuple object is allocated per hop per emitted output,
so the per-instance ``__dict__`` and the dataclass ``__init__``
indirection were measurable across a full sweep.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

_tuple_seq = itertools.count()

#: Wire size of a token. The paper: "less than 1% of tuple size in our two
#: driving applications" — tuples are tens-of-KB images, tokens are bytes.
TOKEN_SIZE = 64


class StreamTuple:
    """One unit of stream data.

    Parameters
    ----------
    payload:
        Application data (an image descriptor, a count, a prediction...).
    size:
        Wire/storage size in bytes.
    entered_at:
        Virtual time the *original* sensed datum entered the system
        (preserved across regions so end-to-end latency is measurable).
    source_seq:
        Sequence number assigned by the source operator that ingested the
        datum; used for deduplication under replication and for replay
        bookkeeping.
    lineage:
        Globally-unique origin ``(qualified_source_name, seq)``; inherited
        by derived tuples so logical identity survives across operators,
        replicas, replays, and regions.
    replay:
        True if this tuple is a catch-up replay after recovery; sinks
        discard replayed results (Section III-D).
    emit_key:
        Logical identity ``(producer_op, source_seq, emit_index)`` stamped
        when a node emits the tuple; replicas of the producer stamp the
        same key, which is what receivers deduplicate on under rep-k.
    uid:
        Unique per-object id (monotone; never reused).  Assigned
        automatically when omitted.
    """

    __slots__ = (
        "payload",
        "size",
        "entered_at",
        "source_seq",
        "lineage",
        "replay",
        "emit_key",
        "uid",
    )

    def __init__(
        self,
        payload: Any,
        size: int,
        entered_at: float,
        source_seq: int = -1,
        lineage: Optional[tuple] = None,
        replay: bool = False,
        emit_key: Optional[tuple] = None,
        uid: Optional[int] = None,
    ) -> None:
        if size < 0:
            raise ValueError("tuple size must be >= 0")
        self.payload = payload
        self.size = size
        self.entered_at = entered_at
        self.source_seq = source_seq
        self.lineage = lineage
        self.replay = replay
        self.emit_key = emit_key
        self.uid = next(_tuple_seq) if uid is None else uid

    def derive(self, payload: Any, size: int) -> "StreamTuple":
        """A downstream tuple produced from this one.

        Lineage metadata (entry time, source sequence, replay flag) is
        inherited; a fresh uid is assigned.
        """
        return StreamTuple(
            payload=payload,
            size=size,
            entered_at=self.entered_at,
            source_seq=self.source_seq,
            lineage=self.lineage,
            replay=self.replay,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        r = " replay" if self.replay else ""
        return f"<Tuple #{self.uid} seq={self.source_seq} {self.size}B{r}>"


class Token:
    """A checkpoint token (Section III-B).

    Tokens are generated by source nodes when the controller requests a
    checkpoint, and forwarded by each node after it snapshots its state.
    ``version`` identifies the checkpoint; a node checkpoints version v
    once it holds version-v tokens from *all* upstream channels.

    Value semantics: tokens compare and hash by field values (they are
    dict keys in the token tracker) and are immutable after construction.
    """

    __slots__ = ("version", "origin", "size")

    def __init__(self, version: int, origin: str, size: int = TOKEN_SIZE) -> None:
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "size", size)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"Token is immutable (tried to set {name!r})")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return (
            self.version == other.version
            and self.origin == other.origin
            and self.size == other.size
        )

    def __hash__(self) -> int:
        return hash((Token, self.version, self.origin, self.size))

    def __reduce__(self):
        # Pickle/copy rebuild via __init__: the default slot-state
        # restore would trip the immutability __setattr__.
        return (Token, (self.version, self.origin, self.size))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token(version={self.version!r}, origin={self.origin!r}, size={self.size!r})"
