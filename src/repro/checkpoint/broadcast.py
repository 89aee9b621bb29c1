"""Multi-phase UDP broadcast checkpointing (Section III-C, Fig. 6).

The algorithm, exactly as the paper walks through it:

1. Partition the checkpoint data into 1 KB blocks (the last block may be
   shorter).  Small datagrams avoid fragmentation losses.
2. Broadcast every (still-needed) block over unreliable UDP — one
   transmission reaches all receivers.
3. Query every receiver for a reception *bitmap* (1 bit per block).
4. AND the bitmaps: any block missed by at least one receiver is a
   candidate for retransmission.
5. Compute the round's **gain** (newly received bytes across receivers)
   and **cost** (bytes transmitted: blocks + bitmap replies).  While the
   cost does not exceed the gain, go to 2 with the missing blocks.
6. Finish over reliable TCP through a relay tree: the residual blocks are
   sent root-to-leaves so every node ends up with the full data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from repro.net import wifi as wifi_net
from repro.net.packet import Message
from repro.net.wifi import Unreachable, WifiCell
from repro.util.bitmaps import bitmap_bytes
from repro.util.units import KB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.sim.monitor import Trace


@dataclass
class BroadcastSettings:
    """Protocol parameters (paper defaults)."""

    block_size: int = KB
    #: Safety valve: the cost/gain rule terminates by itself, but a hard
    #: round cap protects against degenerate channels.
    max_rounds: int = 16
    #: Ablation hook: run exactly this many UDP rounds instead of the
    #: paper's cost/gain stopping rule (0 = straight to the TCP tree,
    #: None = use the cost/gain rule).  Rounds still end early once every
    #: receiver holds everything.
    udp_rounds: Optional[int] = None

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block size must be positive")
        if self.max_rounds < 1:
            raise ValueError("need at least one round")
        if self.udp_rounds is not None and self.udp_rounds < 0:
            raise ValueError("udp_rounds must be >= 0")


@dataclass
class RoundStats:
    """Bookkeeping for one broadcast phase."""

    blocks_sent: int
    cost_bytes: int
    gain_bytes: int


@dataclass
class BroadcastOutcome:
    """Result of a full broadcast (UDP phases + TCP tree)."""

    total_size: int
    n_blocks: int
    rounds: List[RoundStats] = field(default_factory=list)
    udp_bytes: int = 0
    tcp_bytes: int = 0
    #: receiver -> True once it holds the complete data.
    complete: Dict[Any, bool] = field(default_factory=dict)
    duration: float = 0.0

    @property
    def network_bytes(self) -> int:
        """All bytes this checkpoint placed on the air."""
        return self.udp_bytes + self.tcp_bytes

    @property
    def all_complete(self) -> bool:
        """Whether every receiver holds the full checkpoint."""
        return all(self.complete.values()) if self.complete else True


def relay_tree(members: List[Any], fanout: int = 2) -> Dict[Any, List[Any]]:
    """A balanced relay tree over ``members`` (root = members[0]).

    "The tree structure is created by the controller and changes only when
    a phone fails, enters or leaves the region."
    """
    tree: Dict[Any, List[Any]] = {m: [] for m in members}
    for i, m in enumerate(members):
        if i == 0:
            continue
        parent = members[(i - 1) // fanout]
        tree[parent].append(m)
    return tree


def _subtree_members(tree: Dict[Any, List[Any]], root: Any) -> List[Any]:
    out = [root]
    stack = [root]
    while stack:
        for child in tree[stack.pop()]:
            out.append(child)
            stack.append(child)
    return out


def _merge(have: np.ndarray, rows: Any, cols: np.ndarray, got: np.ndarray,
           n_blocks: int) -> None:
    """``have[rows]`` |= ``got``, where ``have`` is packed over all
    ``n_blocks`` blocks and ``got`` over the sorted blocks ``cols`` only;
    ``rows`` may be ``slice(None)``.  A partial round widens ``got`` a
    row chunk at a time, at most :data:`repro.net.wifi.DRAW_BLOCK_FRAGS`
    unpacked blocks per chunk: the loss draw's budget, read per call."""
    if cols.size == n_blocks:  # a fleet-sized cell misses every block somewhere
        if isinstance(rows, slice):
            have |= got
        else:
            have[rows] |= got
        return
    # Widen ``got`` to every block a row chunk at a time: unpack one bit
    # past ``cols`` (a zero), gather every block from it (blocks not sent
    # read that zero) and repack.
    src = np.full(n_blocks, cols.size)
    src[cols] = np.arange(cols.size)
    step = max(1, wifi_net.DRAW_BLOCK_FRAGS // n_blocks)
    for row in range(0, len(got), step):
        bits = np.unpackbits(got[row:row + step], axis=1, count=cols.size + 1,
                             bitorder="little")
        wide = np.packbits(np.take(bits, src, axis=1), axis=1, bitorder="little")
        if isinstance(rows, slice):
            have[row:row + step] |= wide
        else:
            have[rows[row:row + step]] |= wide


def broadcast_checkpoint(
    sim: "Simulator",
    wifi: WifiCell,
    sender: Any,
    total_size: int,
    settings: Optional[BroadcastSettings] = None,
    trace: Optional["Trace"] = None,
    kind: str = "ckpt",
):
    """Process: push ``total_size`` bytes from ``sender`` to every cell member.

    Returns a :class:`BroadcastOutcome`.  The wave's state is one
    bit-packed ``(receivers, ceil(blocks / 8))`` ``uint8`` matrix, one bit
    per block as the bitmap replies carry it, a row per phone that was in
    the cell when the wave started: phones that join later are ignored,
    receivers that leave mid-broadcast simply stop accumulating blocks
    (their flag in ``complete`` stays False).  Bitmap queries and relay
    transfers remain one simulated exchange per member.
    """
    settings = settings or BroadcastSettings()
    if total_size <= 0:
        return BroadcastOutcome(total_size=total_size, n_blocks=0)
    start = sim.now
    block = settings.block_size
    n_blocks = max(1, math.ceil(total_size / block))
    last_block_size = total_size - (n_blocks - 1) * block

    outcome = BroadcastOutcome(total_size=total_size, n_blocks=n_blocks)
    ft_bytes = trace.counter("ft.network_bytes") if trace is not None else None
    members = [m for m in wifi.iter_members() if m != sender]
    if not members:
        return outcome
    have = np.zeros((len(members), (n_blocks + 7) // 8), dtype=np.uint8)
    # A row holding every block, and the set bits of each byte value.
    full = np.packbits(np.ones(n_blocks, dtype=bool), bitorder="little")
    ones = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
        axis=1, dtype=np.uint8)
    last_byte, last_bit = divmod(n_blocks - 1, 8)

    def live_rows() -> Any:
        """Rows of the members still in the cell (all of them: a slice)."""
        live = [row for row, m in enumerate(members) if wifi.is_member(m)]
        return slice(None) if len(live) == len(members) else live

    missing = np.arange(n_blocks)
    prev_total_received = 0

    n_rounds = (settings.max_rounds if settings.udp_rounds is None
                else settings.udp_rounds)
    for _round in range(n_rounds):
        result = yield from wifi.udp_broadcast_round(
            sender, missing, block, last_block_size=last_block_size, kind=kind
        )
        # Merge this round's receptions into the cumulative bitmaps.
        if result.receivers == members:
            _merge(have, slice(None), missing, result.bitmaps, n_blocks)
        else:
            # Churn since the wave began: map the round's rows onto ours.
            row_of = {m: row for row, m in enumerate(members)}
            heard = [i for i, m in enumerate(result.receivers) if m in row_of]
            rows = [row_of[result.receivers[i]] for i in heard]
            _merge(have, rows, missing, result.bitmaps[heard], n_blocks)
        cost = result.bytes_sent
        # Nothing below reads the round's bitmaps: do not let the wave
        # pin them through the bitmap queries.
        del result
        outcome.udp_bytes += cost
        if ft_bytes is not None:
            # Counted as the bytes hit the air (a slow broadcast must not
            # hide its in-flight cost from the Fig. 10 counters).
            ft_bytes.add(cost)

        # Query every receiver for its bitmap (request + reply).
        reply = bitmap_bytes(n_blocks)
        for member in members:
            if not wifi.is_member(sender):
                break  # each query would raise Unreachable before its first yield
            if not wifi.is_member(member):
                continue
            try:
                yield from wifi.control_exchange(sender, member, reply + 64)
                cost += reply
                outcome.udp_bytes += reply
                if ft_bytes is not None:
                    ft_bytes.add(reply)
            except Unreachable:
                continue

        total_received = (
            int(ones[have].sum()) * block
            + int(np.count_nonzero(have[:, last_byte] & (1 << last_bit)))
            * (last_block_size - block)
        )
        gain = total_received - prev_total_received
        prev_total_received = total_received
        outcome.rounds.append(RoundStats(len(missing), cost, gain))

        # AND the live bitmaps: a block any of them lacks is resent.
        held = np.bitwise_and.reduce(have[live_rows()], axis=0)
        missing = np.flatnonzero(
            np.unpackbits(held, count=n_blocks, bitorder="little") == 0)
        if missing.size == 0:
            break
        if settings.udp_rounds is None and cost > gain:
            # "until cost exceeds gain" — stop broadcasting, go reliable.
            break

    # Final phase: reliable TCP through the relay tree.  Each tree edge
    # carries the union of the blocks still missing in the subtree below.
    rows = live_rows()
    present_rows = range(len(members)) if isinstance(rows, slice) else rows
    if present_rows and missing.size:
        # relay[i] for i >= 1 is the member in row present_rows[i - 1].
        relay = [sender] + [members[r] for r in present_rows]
        # The tree over positions in ``relay``: children sit after their
        # parent, so one reverse pass folds every subtree.  need[i] is
        # the blocks missing somewhere under relay[i], packed like have
        # (XOR with ``full`` flips only real blocks: padding stays 0).
        tree = relay_tree(list(range(len(relay))))
        need = np.zeros((len(relay), have.shape[1]), dtype=np.uint8)
        np.bitwise_xor(have[rows], full, out=need[1:])
        for i in range(len(relay) - 1, 0, -1):
            need[(i - 1) // 2] |= need[i]
        counts = ones[need].sum(axis=1).tolist()
        needs_last = (need[:, last_byte] & (1 << last_bit)).tolist()
        for parent in _subtree_members(tree, 0):
            for child in tree[parent]:
                n_need = counts[child]
                if n_need == 0:
                    continue
                nbytes = n_need * block
                if needs_last[child]:
                    nbytes += last_block_size - block
                msg = Message(src=relay[parent], dst=relay[child], size=nbytes,
                              kind=f"{kind}_tcp", payload=("ckpt_tcp",))
                try:
                    yield from wifi.tcp_unicast(msg)
                except Unreachable:
                    continue
                outcome.tcp_bytes += nbytes
                if ft_bytes is not None:
                    ft_bytes.add(nbytes)
                have[present_rows[child - 1]] = full

    for member, done in zip(members, (have == full).all(axis=1).tolist()):
        outcome.complete[member] = done and wifi.is_member(member)
    outcome.duration = sim.now - start
    if trace is not None:
        trace.record(
            sim.now, "broadcast_checkpoint", sender=sender, size=total_size,
            rounds=len(outcome.rounds), udp=outcome.udp_bytes, tcp=outcome.tcp_bytes,
        )
    return outcome
