"""Matrix-form broadcast checkpointing against a per-member reference.

``broadcast_checkpoint`` carries one ``(receivers, blocks)`` matrix and
``udp_broadcast_round`` draws a uniform-loss cell in row blocks.  The
references below are the member-by-member forms they replaced — a dict
of 1-D bitmaps walked in Python, one ``sample()`` call per receiver —
and must produce the same outcome from the same RNG stream, leaving the
stream at the same position.  None of these tests reads the clock: the
speed claim is pinned as work counts instead.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.broadcast import (
    BroadcastOutcome,
    BroadcastSettings,
    RoundStats,
    _merge,
    _subtree_members,
    broadcast_checkpoint,
    relay_tree,
)
from repro.net import wifi as wifi_mod
from repro.net.loss import BernoulliLoss, GilbertElliottLoss
from repro.net.packet import MTU, Message
from repro.net.wifi import Unreachable, WifiCell, WifiConfig
from repro.sim import RngRegistry, Simulator
from repro.util import KB, Mbps
from repro.util.bitmaps import bitmap_bytes, received_bytes


# -- references ----------------------------------------------------------------
def reference_broadcast_checkpoint(sim, wifi, sender, total_size, settings):
    """The per-member protocol walk: ``have`` is a dict of 1-D bitmaps."""
    start = sim.now
    block = settings.block_size
    n_blocks = max(1, math.ceil(total_size / block))
    last_block_size = total_size - (n_blocks - 1) * block
    outcome = BroadcastOutcome(total_size=total_size, n_blocks=n_blocks)
    have = {m: np.zeros(n_blocks, dtype=bool)
            for m in wifi.iter_members() if m != sender}
    if not have:
        return outcome
    to_send = np.arange(n_blocks)
    prev_total_received = 0
    n_rounds = (settings.max_rounds if settings.udp_rounds is None
                else settings.udp_rounds)
    for _round in range(n_rounds):
        result = yield from wifi.udp_broadcast_round(
            sender, to_send, block, last_block_size=last_block_size)
        for member, got in result.received.items():
            bm = have.get(member)
            if bm is not None:
                bm[to_send[got]] = True
        outcome.udp_bytes += result.bytes_sent
        cost = result.bytes_sent
        reply = bitmap_bytes(n_blocks)
        for member in list(have):
            if not wifi.is_member(member):
                continue
            try:
                yield from wifi.control_exchange(sender, member, reply + 64)
                cost += reply
                outcome.udp_bytes += reply
            except Unreachable:
                continue
        total_received = sum(
            received_bytes(bm, block, total_size) for bm in have.values())
        gain = total_received - prev_total_received
        prev_total_received = total_received
        outcome.rounds.append(RoundStats(len(to_send), cost, gain))
        anded = np.ones(n_blocks, dtype=bool)
        for member, bm in have.items():
            if wifi.is_member(member):
                anded &= bm
        missing = np.flatnonzero(~anded)
        if missing.size == 0:
            break
        if settings.udp_rounds is None and cost > gain:
            break
        to_send = missing
    present = [m for m in have if wifi.is_member(m)]
    if present:
        tree = relay_tree([sender] + present)
        for parent in _subtree_members(tree, sender):
            for child in tree[parent]:
                need = np.zeros(n_blocks, dtype=bool)
                for m in _subtree_members(tree, child):
                    need |= ~have[m]
                n_need = int(need.sum())
                if n_need == 0:
                    continue
                nbytes = n_need * block
                if need[-1]:
                    nbytes += last_block_size - block
                msg = Message(src=parent, dst=child, size=nbytes,
                              kind="ckpt_tcp", payload=("ckpt_tcp",))
                try:
                    yield from wifi.tcp_unicast(msg)
                except Unreachable:
                    continue
                outcome.tcp_bytes += nbytes
                have[child][:] = True
    for member, bm in have.items():
        outcome.complete[member] = bool(bm.all()) and wifi.is_member(member)
    outcome.duration = sim.now - start
    return outcome


def reference_round_bitmaps(cell, sender, n, block_size):
    """One ``sample()`` per receiver and a per-row ``reduceat``, in cell
    order — what a round costs the RNG stream, drawn from ``cell._rng``."""
    sizes = np.full(n, block_size + cell.config.header_bytes, dtype=float)
    frags = np.maximum(1, np.ceil(sizes / MTU).astype(int))
    starts = np.cumsum(frags) - frags
    out = {}
    for member in cell.iter_members():
        if member != sender:
            ok = cell._loss[member].sample(int(frags.sum()), cell._rng)
            out[member] = np.logical_and.reduceat(ok, starts)
    return out


# -- fixtures --------------------------------------------------------------------
LOSSES = {
    "uniform": lambda i: BernoulliLoss(0.2),
    "heterogeneous": lambda i: BernoulliLoss(0.05 + 0.1 * (i % 4)),
    "gilbert-elliott": lambda i: GilbertElliottLoss.from_mean(0.15, 4.0),
}


def make_cell(n_receivers, loss="uniform", seed=11):
    sim = Simulator()
    cell = WifiCell(sim, RngRegistry(seed),
                    WifiConfig(bandwidth_bps=Mbps(5.0)), name="mx")
    cell.join("tx", lambda msg: None)
    for i in range(n_receivers):
        cell.join(f"r{i}", lambda msg: None)
        cell.set_loss(f"r{i}", LOSSES[loss](i))
    cell.set_loss("tx", LOSSES[loss](0))
    return sim, cell


def run_both(n_receivers, total_size, settings, loss="uniform", churn=()):
    """(matrix outcome, reference outcome, the two cells) on twin worlds;
    ``churn`` is ``(time, "leave"|"join", member)`` triples."""
    worlds = []
    for impl in (broadcast_checkpoint, reference_broadcast_checkpoint):
        sim, cell = make_cell(n_receivers, loss)
        for at, what, member in churn:
            if what == "leave":
                sim.call_in(at, cell.leave, member)
            else:
                sim.call_in(at, cell.join, member, lambda msg: None)
        proc = sim.process(impl(sim, cell, "tx", total_size, settings))
        sim.run()
        worlds.append((proc.value, cell))
    (got, cell_a), (want, cell_b) = worlds
    return got, want, cell_a, cell_b


def assert_same(got, want, cell_a, cell_b):
    assert got.rounds == want.rounds
    assert (got.udp_bytes, got.tcp_bytes) == (want.udp_bytes, want.tcp_bytes)
    assert got.complete == want.complete
    assert list(got.complete) == list(want.complete)
    assert got.duration == want.duration
    assert type(got.udp_bytes) is int and type(got.tcp_bytes) is int
    assert all(type(r.gain_bytes) is int for r in got.rounds)
    assert cell_a._rng.bit_generator.state == cell_b._rng.bit_generator.state


# -- (a) equivalence -------------------------------------------------------------
@pytest.mark.parametrize("loss", sorted(LOSSES))
@pytest.mark.parametrize("udp_rounds", [None, 0, 1, 3])
def test_matrix_checkpoint_equals_per_member_reference(loss, udp_rounds):
    settings = BroadcastSettings(udp_rounds=udp_rounds)
    # 40 full blocks and a 300-byte tail.
    got, want, a, b = run_both(9, 40 * KB + 300, settings, loss)
    assert got.n_blocks == 41
    assert_same(got, want, a, b)


@pytest.mark.parametrize("loss", sorted(LOSSES))
def test_matrix_checkpoint_equals_reference_with_fragmenting_blocks(loss):
    settings = BroadcastSettings(block_size=4 * KB)  # 3 fragments per datagram
    got, want, a, b = run_both(7, 30 * 4 * KB + 5000, settings, loss)
    assert_same(got, want, a, b)


# A round of 64 KB at 5 Mbps is ~0.11 s of airtime and the bitmap queries
# add a few ms, so these times land inside rounds 1 and 2, between rounds,
# and in the relay phase.
CHURN = {
    "leaver": [(0.05, "leave", "r2")],
    "leaver-between-rounds": [(0.115, "leave", "r5")],
    "late-joiner": [(0.05, "join", "late0"), (0.2, "join", "late1")],
    "leave-and-rejoin": [(0.05, "leave", "r1"), (0.2, "join", "r1")],
    "everything": [(0.03, "leave", "r0"), (0.06, "join", "late0"),
                   (0.13, "leave", "r4"), (0.16, "join", "r0"),
                   (0.24, "leave", "r7"), (0.3, "leave", "r3")],
}


@pytest.mark.parametrize("loss", ["uniform", "gilbert-elliott"])
@pytest.mark.parametrize("churn", sorted(CHURN))
@pytest.mark.parametrize("udp_rounds", [None, 3])
def test_matrix_checkpoint_equals_reference_under_churn(loss, churn, udp_rounds):
    settings = BroadcastSettings(udp_rounds=udp_rounds)
    got, want, a, b = run_both(10, 64 * KB + 17, settings, loss, CHURN[churn])
    assert_same(got, want, a, b)
    assert not any(m.startswith("late") for m in got.complete)


def test_churn_cases_do_change_the_outcome():
    """The churn matrix above is not vacuous: a leaver ends incomplete."""
    got, _want, _a, _b = run_both(
        10, 64 * KB + 17, BroadcastSettings(), "uniform", CHURN["leaver"])
    assert got.complete["r2"] is False
    assert sum(got.complete.values()) == 9


@pytest.mark.parametrize("block_size", [KB, 4 * KB])
@pytest.mark.parametrize("rows_per_block", [1, 50, 65, 1000])
def test_blocked_draw_equals_per_member_draw(monkeypatch, block_size,
                                             rows_per_block):
    """Row blocks of any size — one row, ragged (50+50+30), exact (65+65),
    everything at once — give the bitmaps and the RNG position of a
    member-by-member loop, fragmented datagrams or not."""
    n = 48
    frags_per_row = n * math.ceil((block_size + 28) / MTU)
    monkeypatch.setattr(
        wifi_mod, "DRAW_BLOCK_FRAGS", rows_per_block * frags_per_row)
    sim, cell = make_cell(130)
    _sim, twin = make_cell(130)
    proc = sim.process(cell.udp_broadcast_round("tx", np.arange(n), block_size))
    sim.run()
    want = reference_round_bitmaps(twin, "tx", n, block_size)
    result = proc.value
    assert result.receivers == list(want)
    assert result.bitmaps.shape == (130, n // 8)
    assert result.bitmaps.dtype == np.uint8
    for member, packed in zip(result.receivers, result.bitmaps):
        row = result.received[member]
        assert np.array_equal(row, want[member])
        assert np.array_equal(np.packbits(row, bitorder="little"), packed)
    assert cell._rng.bit_generator.state == twin._rng.bit_generator.state


@st.composite
def merge_cases(draw):
    """A cumulative ``have`` matrix, one round's ``got`` over a sorted
    block subset ``cols``, the rows it lands on (``slice(None)`` or a
    list of distinct rows of a larger ``have``) and a chunk size."""
    n_blocks = draw(st.integers(1, 70))
    cols = np.array(sorted(draw(st.sets(st.integers(0, n_blocks - 1),
                                        min_size=1))))
    n_got = draw(st.integers(1, 12))
    if draw(st.booleans()):
        rows, n_have = slice(None), n_got
    else:
        n_have = n_got + draw(st.integers(0, 6))
        rows = draw(st.permutations(range(n_have)))[:n_got]
    seed = draw(st.integers(0, 2**32 - 1))
    rows_per_chunk = draw(st.integers(1, n_got))
    return n_blocks, cols, n_have, rows, seed, rows_per_chunk


@settings(max_examples=120, deadline=None)
@given(merge_cases())
def test_chunked_merge_equals_one_shot_merge(case):
    """``_merge`` widens a partial round a row chunk at a time, the chunk
    sized from the draw budget it reads per call: any chunk size — one
    row, ragged, everything at once — gives the bits of one unpacked
    ``have[rows, cols] |= got``."""
    n_blocks, cols, n_have, rows, seed, rows_per_chunk = case
    gen = np.random.default_rng(seed)
    hit = np.arange(n_have)[rows]
    have_bits = gen.random((n_have, n_blocks)) < 0.5
    got_bits = gen.random((hit.size, cols.size)) < 0.5
    want = have_bits.copy()
    want[np.ix_(hit, cols)] |= got_bits

    def merged(budget):
        have = np.packbits(have_bits, axis=1, bitorder="little")
        got = np.packbits(got_bits, axis=1, bitorder="little")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wifi_mod, "DRAW_BLOCK_FRAGS", budget)
            _merge(have, rows, cols, got, n_blocks)
        return have

    chunked = merged(rows_per_chunk * n_blocks)
    assert np.array_equal(chunked, merged(n_have * n_blocks))
    assert np.array_equal(
        chunked, np.packbits(want, axis=1, bitorder="little"))


# -- (b) work counts ---------------------------------------------------------------
class CountingRng:
    """Delegates to a Generator, counting ``random`` calls."""

    def __init__(self, rng):
        self._rng = rng
        self.random_calls = 0

    def random(self, *args, **kwargs):
        self.random_calls += 1
        return self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class CountingNumpy:
    """Stands in for ``numpy`` inside ``repro.net.wifi``, counting
    ``logical_and.reduceat`` calls."""

    def __init__(self):
        self.reduceat_calls = 0
        self.logical_and = self

    def reduceat(self, *args, **kwargs):
        self.reduceat_calls += 1
        return np.logical_and.reduceat(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


def one_round(cell, sim, n_blocks, block_size=KB):
    proc = sim.process(
        cell.udp_broadcast_round("tx", np.arange(n_blocks), block_size))
    sim.run()
    return proc.value


@pytest.mark.parametrize("n_receivers,n_blocks", [
    (7, 300),           # an 8-phone cell: one draw
    (1500, 700),        # a fleet cell: full row blocks and a stub
    (1500, 12_000),     # a fleet wave's first round: many short blocks
    (300, 1 << 20),     # a row as long as the block: one row at a time
])
def test_one_rng_call_per_row_block(monkeypatch, n_receivers, n_blocks):
    sim, cell = make_cell(n_receivers)
    cell._rng = CountingRng(cell._rng)
    if n_blocks == 1 << 20:  # keep the big-row case cheap: shrink the block
        monkeypatch.setattr(wifi_mod, "DRAW_BLOCK_FRAGS", 1 << 10)
        n_blocks = 1 << 10
    # 1 KB blocks are one fragment each: a row is n_blocks uniforms.
    rows_per_block = max(1, wifi_mod.DRAW_BLOCK_FRAGS // n_blocks)
    counting = CountingNumpy()
    monkeypatch.setattr(wifi_mod, "np", counting)
    one_round(cell, sim, n_blocks)
    assert cell._rng.random_calls == math.ceil(n_receivers / rows_per_block)
    assert counting.reduceat_calls == 0  # 1 KB blocks: one fragment each


def test_reduceat_runs_once_per_row_block_only_when_fragmented(monkeypatch):
    counting = CountingNumpy()
    monkeypatch.setattr(wifi_mod, "np", counting)
    monkeypatch.setattr(wifi_mod, "DRAW_BLOCK_FRAGS", 30 * 10)
    sim, cell = make_cell(25)
    one_round(cell, sim, 10, block_size=4 * KB)  # 30 fragments a row
    assert counting.reduceat_calls == 3  # 10 + 10 + 5 rows


def test_fleet_round_peak_memory_is_bitmaps_plus_one_draw_block():
    """1 500 receivers x 12 000 blocks: the bit-packed matrix (2.1 MiB),
    one 1 MiB block of uniforms and its 117 KiB of bools (3.6 MiB traced)
    — not a byte per (receiver, block) (a 17.2 MiB bool matrix), let
    alone the 137 MiB float matrix of a single draw."""
    sim, cell = make_cell(1500)
    tracemalloc.start()
    try:
        result = one_round(cell, sim, 12_000)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.bitmaps.shape == (1500, 1500)
    assert peak < 6 * 2**20, f"round peaked at {peak / 2**20:.1f} MiB"


def test_fleet_wave_peak_memory_is_one_bit_per_block():
    """A whole wave of 12 000 blocks to 1 500 receivers — every UDP round,
    the bitmap queries and the relay tree — holds its reception state as
    packed bits (6.8 MiB traced): a byte per (receiver, block) reads
    ~66 MiB here."""
    sim, cell = make_cell(1500)
    tracemalloc.start()
    try:
        proc = sim.process(broadcast_checkpoint(sim, cell, "tx", 12_000 * KB))
        sim.run()
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert proc.value.n_blocks == 12_000 and proc.value.all_complete
    assert peak < 12 * 2**20, f"wave peaked at {peak / 2**20:.1f} MiB"


def test_no_bitmap_query_starts_once_the_sender_has_left():
    """Every query from a gone sender would raise ``Unreachable`` before
    its first yield, moving no byte: the wave stops issuing them.  (Its
    rounds still run; see the strict xfail below.)"""
    sim, cell = make_cell(4)
    queries = []  # (sim time, sender still a member) of every query begun
    rounds = []
    round_impl, query_impl = cell.udp_broadcast_round, cell.control_exchange

    def counted_round(*args, **kwargs):
        result = yield from round_impl(*args, **kwargs)
        rounds.append(sim.now)
        if len(rounds) == 1:
            # Mid-way through round 1's first bitmap query.
            sim.call_at(sim.now + 0.001, cell.leave, "tx")
        return result

    def counted_query(*args, **kwargs):
        queries.append((sim.now, cell.is_member("tx")))
        return (yield from query_impl(*args, **kwargs))

    cell.udp_broadcast_round = counted_round
    cell.control_exchange = counted_query
    sim.process(broadcast_checkpoint(sim, cell, "tx", 256 * KB))
    sim.run()
    assert len(rounds) > 1 and queries
    assert [q for q in queries if not q[1]] == []


@pytest.mark.xfail(strict=True, reason=(
    "broadcast_checkpoint's rounds never check that their sender is still "
    "in the cell: a gone sender keeps broadcasting them (its bitmap "
    "queries stop); fixing it moves simulated bytes and the seed-3 digests"))
def test_wave_stops_once_its_sender_leaves_the_cell():
    """A sender that leaves a lossy cell after round 1 (a crash or a
    departure) is charged no further round and no further bitmap query."""
    sim, cell = make_cell(4)
    started = []  # (what, sim time) of every round and query begun
    leave_at = []
    round_impl, query_impl = cell.udp_broadcast_round, cell.control_exchange

    def counted_round(*args, **kwargs):
        started.append(("round", sim.now))
        result = yield from round_impl(*args, **kwargs)
        if not leave_at:
            # Mid-way through round 1's first bitmap query.
            leave_at.append(sim.now + 0.001)
            sim.call_at(leave_at[0], cell.leave, "tx")
        return result

    def counted_query(*args, **kwargs):
        started.append(("query", sim.now))
        return (yield from query_impl(*args, **kwargs))

    cell.udp_broadcast_round = counted_round
    cell.control_exchange = counted_query
    sim.process(broadcast_checkpoint(sim, cell, "tx", 256 * KB))
    sim.run()
    assert leave_at and any(what == "query" for what, _t in started)
    assert [s for s in started if s[1] > leave_at[0]] == []
