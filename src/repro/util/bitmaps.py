"""Reception bitmaps for the multi-phase UDP broadcast protocol.

Section III-C of the paper: after each broadcast round, every receiver
returns a bitmap with one bit per message (1 = received).  The sender ANDs
the bitmaps to find messages missed by at least one receiver, and compares
the byte *gain* of the round against its byte *cost*.

Bitmaps are ``numpy`` boolean arrays; the round arithmetic itself lives
in :mod:`repro.checkpoint.broadcast` in matrix form.  The helpers below
size a bitmap reply and count the bytes one bitmap holds.
"""

from __future__ import annotations

import math

import numpy as np

Bitmap = np.ndarray  # alias: 1-D bool array


def received_bytes(
    bitmap: Bitmap, block_size: int, total_size: int
) -> int:
    """Bytes held by a receiver, honouring a short final block.

    The paper partitions checkpoint data into 1 KB blocks where "the last
    block may be less than 1KB"; Fig. 6's arithmetic (e.g. node C holding
    all blocks but M2 = 8191 KB) depends on this.
    """
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    n = len(bitmap)
    if n == 0:
        return 0
    expected_blocks = max(1, math.ceil(total_size / block_size))
    if expected_blocks != n:
        raise ValueError(
            f"bitmap has {n} blocks but total_size {total_size} implies "
            f"{expected_blocks}"
        )
    last_block = total_size - (n - 1) * block_size
    full = int(np.count_nonzero(bitmap[:-1])) * block_size
    return full + (last_block if bitmap[-1] else 0)


def bitmap_bytes(n_messages: int) -> int:
    """Wire size of a bitmap reply for ``n_messages`` messages.

    One bit per message, rounded up to whole bytes (Fig. 6: 8192 messages
    -> 1 KB bitmap).
    """
    return max(1, math.ceil(n_messages / 8))
