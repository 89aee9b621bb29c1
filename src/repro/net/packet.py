"""Message and fragmentation model.

All traffic — data tuples, tokens, checkpoint blocks, bitmaps, control
messages — is represented by :class:`Message`, a ``__slots__`` class
like :class:`~repro.core.tuples.StreamTuple` since one is allocated per
tuple hop.  Only the *size* of a message affects timing; the ``payload``
rides along for protocol logic.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

_msg_ids = itertools.count()

#: Conventional maximum UDP datagram the paper uses for checkpoint blocks.
UDP_BLOCK_SIZE = 1024

#: Typical link-layer MTU; messages above this fragment (and a fragment
#: loss drops the whole datagram — the paper's motivation for 1 KB blocks).
MTU = 1500


class Message:
    """A unit of network traffic.

    Parameters
    ----------
    src:
        Sender identifier (phone id, ``"controller"``, server name...).
    dst:
        Receiver identifier; ``None`` means local broadcast.
    size:
        Wire size in bytes (headers included; we do not model headers
        separately).
    kind:
        Protocol discriminator, e.g. ``"tuple"``, ``"token"``,
        ``"ckpt_block"``, ``"bitmap_query"``, ``"ping"``.
    payload:
        Arbitrary protocol data (not copied; treat as immutable).
    """

    __slots__ = ("src", "dst", "size", "kind", "payload", "msg_id")

    def __init__(
        self,
        src: Any,
        dst: Optional[Any],
        size: int,
        kind: str,
        payload: Any = None,
    ) -> None:
        if size < 0:
            raise ValueError(f"message size must be >= 0, got {size}")
        self.src = src
        self.dst = dst
        self.size = size
        self.kind = kind
        self.payload = payload
        self.msg_id = next(_msg_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Message #{self.msg_id} {self.kind} {self.src}->"
            f"{self.dst if self.dst is not None else '*'} {self.size}B>"
        )
