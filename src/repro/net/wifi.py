"""Ad-hoc WiFi cell: shared half-duplex medium with lossy UDP broadcast.

One :class:`WifiCell` per region.  Key modelling choices, each grounded in
the paper:

* **Half-duplex shared channel.** All transmissions in a region serialize
  through one channel (`Resource(capacity=1)`).  Checkpoint traffic
  therefore steals airtime from data tuples — this *is* the fault-tolerance
  throughput overhead of Fig. 8.
* **Broadcast reaches everyone for one transmission.**  A UDP broadcast of
  N blocks costs N block-times of airtime regardless of receiver count;
  unicasting the same data to k receivers costs k×N.  MobiStreams'
  advantage over dist-n follows directly.
* **Per-receiver datagram loss.**  Each member has its own loss process;
  reception bitmaps differ per receiver exactly as in Fig. 6.
* **TCP-like reliable unicast** is modelled as goodput derated by the
  channel's expected loss (retransmissions occupy airtime), plus a small
  per-message latency.  A process runs it with ``yield from``; per-tuple
  traffic passes callbacks instead and needs no process at all.

Members register a delivery callback; a phone that leaves the cell simply
stops being reachable, which upper layers observe as broken links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

import numpy as np

from repro.net.loss import BernoulliLoss, LossModel
from repro.net.packet import MTU, Message
from repro.sim.resources import Resource
from repro.util.units import Mbps, transmission_time

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.sim.monitor import Trace
    from repro.sim.rng import RngRegistry

DeliverFn = Callable[[Message], None]


class Unreachable(Exception):
    """Raised when the destination is not a member of the cell."""


@dataclass
class WifiConfig:
    """Tunable parameters of an ad-hoc WiFi cell.

    Defaults follow Section IV: "the measured bandwidth of the ad-hoc WiFi
    network in each region is 1∼5 Mbps"; we default to the middle of that
    band with ~8% datagram loss.
    """

    bandwidth_bps: float = Mbps(2.0)
    #: One-way propagation + stack latency per message.
    latency_s: float = 0.002
    #: Factory producing a fresh loss model per receiver.
    loss_factory: Callable[[], LossModel] = field(
        default_factory=lambda: (lambda: BernoulliLoss(0.08))
    )
    #: Estimated mean loss used to derate reliable-transfer goodput.
    mean_loss: float = 0.08
    #: Per-message protocol overhead in bytes (UDP/IP headers).
    header_bytes: int = 28

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.mean_loss < 1.0:
            raise ValueError("mean_loss must be in [0, 1)")


#: Row-block size of the uniform-loss draw, in fragments: a round samples
#: at most this many uniforms at a time (1 MiB of float64, about an L2
#: cache) however many receivers the cell has.  PCG64 fills arrays
#: row-major, so blocking does not change which double lands on which
#: (receiver, fragment).  The earlier 8 MiB block set the peak RSS of a
#: fleet-sized broadcast and its compare pass ran out of cache; a cell of
#: a few receivers still draws in one call.
DRAW_BLOCK_FRAGS = 1 << 17


@dataclass
class BroadcastRoundResult:
    """Outcome of one UDP broadcast round (one sender, many receivers).

    The reception bitmaps are one bit-packed matrix, one bit per block as
    on the wire (Fig. 6): row ``i`` belongs to ``receivers[i]``, and bit
    ``j`` of a row (``np.packbits`` order ``"little"``: byte ``j // 8``,
    bit ``j % 8``) to the ``j``-th index sent this round.  Bits past
    ``n_blocks`` in a row's last byte are zero.
    """

    #: Cell members the round reached (everyone but the sender), in cell
    #: join order.
    receivers: List[Any]
    #: uint8, shape ``(len(receivers), ceil(n_blocks / 8))``; 1 = heard.
    bitmaps: np.ndarray
    #: Number of indices sent this round: the bits per row.
    n_blocks: int
    #: Airtime bytes actually transmitted this round (blocks + headers).
    bytes_sent: int
    #: Wall (virtual) duration of the round.
    duration: float

    @property
    def received(self) -> Dict[Any, np.ndarray]:
        """Map receiver id -> its bitmap, unpacked to a 1-D bool row."""
        rows = np.unpackbits(self.bitmaps, axis=1, count=self.n_blocks,
                             bitorder="little").view(bool)
        return dict(zip(self.receivers, rows))


class WifiCell:
    """The shared ad-hoc WiFi medium of one region."""

    def __init__(
        self,
        sim: "Simulator",
        rng: "RngRegistry",
        config: Optional[WifiConfig] = None,
        name: str = "wifi",
        trace: Optional["Trace"] = None,
    ) -> None:
        self.sim = sim
        self.config = config or WifiConfig()
        self.name = name
        self.trace = trace
        self.channel = Resource(sim, capacity=1)
        self._members: Dict[Any, DeliverFn] = {}
        self._loss: Dict[Any, LossModel] = {}
        self._rng = rng.stream(f"{name}.loss")
        # Uniform-loss cache for the batched broadcast draw: the shared
        # Bernoulli p when every member's model is a plain BernoulliLoss
        # with the same p (the default config), else None.  Recomputed
        # lazily after membership changes.
        self._uniform_p: Optional[float] = None
        self._uniform_dirty = True
        # Pre-resolved counter handles: the per-transmission f-string key
        # build plus two dict lookups used to run on every datagram.
        if trace is not None:
            self._bytes_total = trace.counter("net.wifi.bytes")
            self._bytes_cell = trace.counter(f"net.wifi.{name}.bytes")
        else:
            self._bytes_total = None
            self._bytes_cell = None

    # -- membership -------------------------------------------------------
    def iter_members(self):
        """Iterate member ids without copying.

        The view is live: callers must not join/leave the cell while
        iterating (none of the protocol code does).
        """
        return iter(self._members)

    def join(self, member_id: Any, deliver: DeliverFn) -> None:
        """Add a phone to the cell with its delivery callback.

        The member's loss model (created here on first join) must not be
        mutated in place afterwards — the batched broadcast path caches
        the shared Bernoulli p and would keep drawing with the stale
        value.  Use :meth:`set_loss` to change a member's channel.
        """
        self._members[member_id] = deliver
        self._uniform_dirty = True
        if member_id not in self._loss:
            self._loss[member_id] = self.config.loss_factory()

    def leave(self, member_id: Any) -> None:
        """Remove a phone (departure or failure); silently idempotent."""
        self._members.pop(member_id, None)
        self._uniform_dirty = True

    def set_loss(self, member_id: Any, model: LossModel) -> None:
        """Replace ``member_id``'s loss model.

        The only supported way to change a member's channel after join:
        it invalidates the uniform-loss cache so the batched and
        per-member broadcast paths stay in agreement.
        """
        self._loss[member_id] = model
        self._uniform_dirty = True

    def is_member(self, member_id: Any) -> bool:
        """Whether a phone is currently reachable in the cell."""
        return member_id in self._members

    def _uniform_loss_p(self) -> Optional[float]:
        """Shared Bernoulli p when every member's loss model allows the
        batched draw (plain :class:`BernoulliLoss`, equal p), else None.

        Cached across rounds and invalidated by join/leave/set_loss;
        mutating a model's ``p`` in place bypasses the invalidation (see
        :meth:`join`)."""
        if self._uniform_dirty:
            p: Optional[float] = None
            for member_id in self._members:
                model = self._loss[member_id]
                if type(model) is not BernoulliLoss:
                    p = None
                    break
                if p is None:
                    p = model.p
                elif model.p != p:
                    p = None
                    break
            self._uniform_p = p
            self._uniform_dirty = False
        return self._uniform_p

    # -- timing helpers ----------------------------------------------------
    def tx_time(self, size: int) -> float:
        """Airtime for ``size`` bytes (headers included by the caller)."""
        return transmission_time(size, self.config.bandwidth_bps)

    def _count(self, n_bytes: float) -> None:
        total = self._bytes_total
        if total is not None:
            total.add(n_bytes)
            self._bytes_cell.add(n_bytes)

    # -- datagram (UDP) ----------------------------------------------------
    def udp_unicast(self, msg: Message):
        """Process: send one unreliable datagram. Returns True if delivered.

        The datagram occupies the channel for its airtime; delivery is then
        subject to the receiver's loss process and membership.
        """
        size = msg.size + self.config.header_bytes
        req = self.channel.request()
        yield req
        try:
            yield self.sim.timeout(self.tx_time(size))
        finally:
            self.channel.release(req)
        self._count(size)
        deliver = self._members.get(msg.dst)
        if deliver is None:
            return False
        if not self._loss[msg.dst].sample_one(self._rng):
            return False
        self.sim.call_in(self.config.latency_s, deliver, msg)
        return True

    def udp_broadcast_round(
        self,
        sender: Any,
        indices: np.ndarray,
        block_size: int,
        last_block_size: Optional[int] = None,
        kind: str = "ckpt_block",
        payload: Any = None,
    ):
        """Process: broadcast the datagrams at ``indices`` to all members.

        Models one *phase* of Section III-C: the sender pushes every listed
        block back-to-back; each receiver's loss process independently
        decides which blocks it hears.  Returns a
        :class:`BroadcastRoundResult` whose packed bitmap bits are aligned
        with ``indices``.

        When every member shares one plain Bernoulli loss (the default
        config) the whole cell is sampled as a matrix, in row blocks of
        :data:`DRAW_BLOCK_FRAGS` uniforms — the same RNG stream a
        member-by-member loop would consume.  Heterogeneous or stateful
        (Gilbert-Elliott) loss models keep one ``sample()`` call per
        receiver.  Either way each row is packed to bits as soon as it is
        drawn, so the round holds one bit per (receiver, block).

        ``last_block_size`` is the wire size of the final block of the
        overall transfer (the paper: "the last block may be less than
        1KB"); it is charged only when ``indices`` includes that block —
        callers pass the block count so we only need sizes here.
        """
        indices = np.asarray(indices)
        n = int(indices.size)
        if n == 0:
            receivers = [m for m in self._members if m != sender]
            return BroadcastRoundResult(
                receivers=receivers,
                bitmaps=np.zeros((len(receivers), 0), dtype=np.uint8),
                n_blocks=0,
                bytes_sent=0,
                duration=0.0,
            )
        hdr = self.config.header_bytes
        sizes = np.full(n, block_size + hdr, dtype=float)
        if last_block_size is not None and last_block_size != block_size:
            # indices are positions in the full transfer; the final block
            # is the one with the largest index value.  Known defect: a
            # round that omits the final block still charges its largest
            # index as the short tail (a strict xfail in test_wifi.py).
            last_pos = int(np.argmax(indices))
            sizes[last_pos] = last_block_size + hdr
        total_bytes = float(sizes.sum())

        start = self.sim.now
        req = self.channel.request()
        yield req
        try:
            yield self.sim.timeout(transmission_time(total_bytes, self.config.bandwidth_bps))
        finally:
            self.channel.release(req)
        self._count(total_bytes)

        # A datagram above the link MTU fragments, and one lost fragment
        # drops the whole datagram (the paper's case for 1 KB blocks):
        # sample the loss process at *fragment* granularity and AND the
        # fragments of each datagram.  Single-fragment datagrams (the
        # default 1 KB blocks) are one sample per datagram, no reduction.
        frags = np.maximum(1, np.ceil(sizes / MTU).astype(int))
        total_frags = int(frags.sum())
        fragmented = total_frags != n
        starts = np.cumsum(frags) - frags
        # No yields below this point, so membership cannot change under
        # us: iterate the live dict instead of copying it every round.
        receivers = [m for m in self._members if m != sender]
        bitmaps = np.empty((len(receivers), (n + 7) // 8), dtype=np.uint8)
        uniform_p = self._uniform_loss_p()
        if uniform_p is not None:
            step = max(1, DRAW_BLOCK_FRAGS // total_frags)
            uniforms = np.empty((min(step, len(receivers)), total_frags))
            heard = np.empty((len(uniforms), n), dtype=bool)
            for row in range(0, len(receivers), step):
                block = uniforms[:len(receivers) - row]
                self._rng.random(out=block)
                out = heard[:len(block)]
                if fragmented:
                    np.logical_and.reduceat(block >= uniform_p, starts, axis=1, out=out)
                else:
                    np.greater_equal(block, uniform_p, out=out)
                bitmaps[row:row + step] = np.packbits(out, axis=1, bitorder="little")
        else:
            for row, member_id in enumerate(receivers):
                frag_ok = self._loss[member_id].sample(total_frags, self._rng)
                bitmaps[row] = np.packbits(
                    np.logical_and.reduceat(frag_ok, starts) if fragmented else frag_ok,
                    bitorder="little")
        return BroadcastRoundResult(
            receivers=receivers,
            bitmaps=bitmaps,
            n_blocks=n,
            bytes_sent=int(total_bytes),
            duration=self.sim.now - start,
        )

    # -- reliable (TCP-like) -------------------------------------------------
    def reliable_goodput(self) -> float:
        """Effective bits/s of a reliable transfer (loss-derated)."""
        return self.config.bandwidth_bps * (1.0 - self.config.mean_loss)

    def tcp_unicast(
        self,
        msg: Message,
        on_sent: Optional[DeliverFn] = None,
        on_lost: Optional[DeliverFn] = None,
    ):
        """Reliably deliver ``msg`` to ``msg.dst``.

        Occupies the channel for the loss-derated transfer time (the
        retransmissions are airtime too), then delivers after
        ``latency_s``.  Two call forms share that arithmetic:

        * ``yield from cell.tcp_unicast(msg)`` — returns a generator for
          a process to run.  It returns True once delivery is scheduled
          and raises :class:`Unreachable` if the destination is not (or
          no longer) a member.
        * ``cell.tcp_unicast(msg, on_sent, on_lost)`` — fire-and-forget,
          no process: one channel request and one callback at the end of
          the airtime, which calls ``on_sent(msg)``, or ``on_lost(msg)``
          if the destination left mid-transfer.  A destination that is
          not a member gets ``on_lost(msg)`` right away.
        """
        if on_sent is None and on_lost is None:
            return self._tcp_transfer(msg)
        if on_sent is None or on_lost is None:
            raise TypeError("the callback form needs both on_sent and on_lost")
        if msg.dst not in self._members:
            on_lost(msg)
            return None
        size, air_time = self._tcp_airtime(msg)
        req = self.channel.request()
        args = (req, msg, size, on_sent, on_lost)
        if req.callbacks is None:  # granted on the spot
            self.sim.call_in(air_time, self._tcp_sent, *args)
        else:
            req.callbacks.append(
                lambda _req: self.sim.call_in(air_time, self._tcp_sent, *args))
        return None

    def _tcp_transfer(self, msg: Message):
        """The generator form of :meth:`tcp_unicast`."""
        if msg.dst not in self._members:
            raise Unreachable(f"{msg.dst} is not in cell {self.name}")
        size, air_time = self._tcp_airtime(msg)
        req = self.channel.request()
        yield req
        try:
            yield self.sim.timeout(air_time)
        finally:
            self.channel.release(req)
        if not self._tcp_deliver(msg, size):
            raise Unreachable(f"{msg.dst} left cell {self.name} during transfer")
        return True

    def _tcp_sent(self, req, msg: Message, size: int, on_sent, on_lost) -> None:
        """End of a callback-form transfer's airtime."""
        self.channel.release(req)
        if self._tcp_deliver(msg, size):
            on_sent(msg)
        else:
            on_lost(msg)

    def _tcp_airtime(self, msg: Message):
        """(wire size, airtime) of a reliable transfer of ``msg``."""
        size = msg.size + self.config.header_bytes
        return size, transmission_time(size, self.reliable_goodput())

    def _tcp_deliver(self, msg: Message, size: int) -> bool:
        """Charge a finished transfer's bytes and schedule its delivery;
        False if the destination left mid-transfer."""
        self._count(size / (1.0 - self.config.mean_loss))
        deliver = self._members.get(msg.dst)
        if deliver is None:
            return False
        self.sim.call_in(self.config.latency_s, deliver, msg)
        return True

    def control_exchange(self, a: Any, b: Any, size_bytes: int):
        """Process: a small reliable request/response pair between members.

        Used for bitmap queries: sender asks, receiver answers.  Charges
        two messages of ``size_bytes`` total; raises :class:`Unreachable`
        if either endpoint is gone.
        """
        if a not in self._members or b not in self._members:
            raise Unreachable(f"{a} or {b} not in cell {self.name}")
        size = size_bytes + 2 * self.config.header_bytes
        air_time = transmission_time(size, self.reliable_goodput())
        req = self.channel.request()
        yield req
        try:
            yield self.sim.timeout(air_time + 2 * self.config.latency_s)
        finally:
            self.channel.release(req)
        self._count(size)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<WifiCell {self.name} members={len(self._members)}>"
