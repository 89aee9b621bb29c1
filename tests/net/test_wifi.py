"""Tests for the ad-hoc WiFi cell."""

import numpy as np
import pytest

from repro.net import Message, WifiCell, WifiConfig
from repro.net.loss import BernoulliLoss, NoLoss
from repro.net.wifi import Unreachable
from repro.sim import RngRegistry, Simulator, Trace
from repro.util import KB, Mbps


def make_cell(loss=0.0, bandwidth=Mbps(2), trace=None, seed=42):
    sim = Simulator()
    cfg = WifiConfig(
        bandwidth_bps=bandwidth,
        loss_factory=lambda: BernoulliLoss(loss) if loss else NoLoss(),
        mean_loss=min(loss, 0.99),
    )
    cell = WifiCell(sim, RngRegistry(seed), cfg, name="r0", trace=trace)
    return sim, cell


def test_membership():
    sim, cell = make_cell()
    inbox = []
    cell.join("A", inbox.append)
    assert cell.is_member("A")
    assert list(cell.iter_members()) == ["A"]
    cell.leave("A")
    assert not cell.is_member("A")
    cell.leave("A")  # idempotent


def test_udp_unicast_delivers_without_loss():
    sim, cell = make_cell()
    inbox = []
    cell.join("A", lambda m: None)
    cell.join("B", inbox.append)
    msg = Message(src="A", dst="B", size=KB, kind="tuple", payload="hello")

    p = sim.process(cell.udp_unicast(msg))
    sim.run()
    assert p.value is True
    assert [m.payload for m in inbox] == ["hello"]


def test_udp_unicast_to_nonmember_returns_false():
    sim, cell = make_cell()
    cell.join("A", lambda m: None)
    msg = Message(src="A", dst="ghost", size=KB, kind="tuple")
    p = sim.process(cell.udp_unicast(msg))
    sim.run()
    assert p.value is False


def test_udp_unicast_lossy_channel_drops():
    sim, cell = make_cell(loss=1.0)
    inbox = []
    cell.join("A", lambda m: None)
    cell.join("B", inbox.append)
    p = sim.process(cell.udp_unicast(Message(src="A", dst="B", size=KB, kind="t")))
    sim.run()
    assert p.value is False
    assert inbox == []


def test_tcp_unicast_reliable_and_timed():
    sim, cell = make_cell(bandwidth=Mbps(2))
    inbox = []
    cell.join("A", lambda m: None)
    cell.join("B", inbox.append)
    size = 100 * KB
    p = sim.process(cell.tcp_unicast(Message(src="A", dst="B", size=size, kind="t")))
    sim.run()
    assert p.value is True
    assert len(inbox) == 1
    expected = (size + cell.config.header_bytes) * 8 / Mbps(2) + cell.config.latency_s
    assert sim.now == pytest.approx(expected, rel=1e-6)


def test_tcp_unicast_loss_derates_goodput():
    _, lossless = make_cell(loss=0.0)
    _, lossy = make_cell(loss=0.5)
    assert lossy.reliable_goodput() == pytest.approx(0.5 * lossless.reliable_goodput())


def test_tcp_unicast_unreachable_raises():
    sim, cell = make_cell()
    cell.join("A", lambda m: None)

    def proc(sim):
        try:
            yield from cell.tcp_unicast(Message(src="A", dst="gone", size=1, kind="t"))
        except Unreachable:
            return "raised"

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "raised"


def _send_both_forms(leave_at=None):
    """Send the same three messages with each tcp_unicast call form;
    returns per form (delivery times, lost messages, byte counters)."""
    outcomes = []
    for form in ("generator", "callback"):
        trace = Trace()
        sim, cell = make_cell(loss=0.08, trace=trace)
        delivered, lost = [], []
        cell.join("A", lambda m: None)
        cell.join("B", lambda m: delivered.append((m.payload, sim.now)))
        cell.join("C", lambda m: delivered.append((m.payload, sim.now)))
        msgs = [Message(src="A", dst=dst, size=size, kind="t", payload=i)
                for i, (dst, size) in enumerate([("B", 5000), ("C", 300), ("B", 80)])]
        for msg in msgs:
            if form == "generator":
                def proc(sim, msg=msg):
                    try:
                        yield from cell.tcp_unicast(msg)
                    except Unreachable:
                        lost.append((msg.payload, sim.now))
                sim.process(proc(sim))
            else:
                cell.tcp_unicast(msg, on_sent=lambda m: None,
                                 on_lost=lambda m: lost.append((m.payload, sim.now)))
        if leave_at is not None:
            sim.call_at(leave_at, cell.leave, "C")
        sim.run()
        outcomes.append((delivered, lost, trace.value("net.wifi.bytes"),
                         trace.value("net.wifi.r0.bytes")))
    return outcomes


def test_tcp_unicast_callback_form_matches_generator_form():
    generator, callback = _send_both_forms()
    assert callback == generator
    delivered, lost, _, _ = callback
    assert [p for p, _ in delivered] == [0, 1, 2] and lost == []


def test_tcp_unicast_callback_form_departure_mid_transfer():
    # C leaves while the first (5000 B) transfer still holds the channel,
    # so message 1 to C is lost at the end of its own airtime.
    generator, callback = _send_both_forms(leave_at=0.01)
    assert callback == generator
    delivered, lost, _, _ = callback
    assert [p for p, _ in delivered] == [0, 2]
    assert [p for p, _ in lost] == [1]


def test_tcp_unicast_callback_form_nonmember_is_lost_at_once():
    sim, cell = make_cell()
    cell.join("A", lambda m: None)
    sim.run(until=2.5)
    lost = []
    cell.tcp_unicast(Message(src="A", dst="gone", size=1, kind="t"),
                     on_sent=lambda m: None,
                     on_lost=lambda m: lost.append(sim.now))
    assert lost == [2.5]
    assert cell.channel.count == 0


def test_tcp_unicast_callback_form_needs_both_callbacks():
    sim, cell = make_cell()
    with pytest.raises(TypeError):
        cell.tcp_unicast(Message(src="A", dst="B", size=1, kind="t"),
                         on_sent=lambda m: None)


def test_channel_serializes_transmissions():
    """Two concurrent sends cannot overlap on the half-duplex medium."""
    sim, cell = make_cell(bandwidth=Mbps(1))
    cell.join("A", lambda m: None)
    cell.join("B", lambda m: None)
    cell.join("C", lambda m: None)
    size = 125_000  # = 1 s airtime at 1 Mbps (ignoring headers)
    done = []

    def sender(sim, src, dst):
        yield from cell.tcp_unicast(Message(src=src, dst=dst, size=size, kind="t"))
        done.append(sim.now)

    sim.process(sender(sim, "A", "B"))
    sim.process(sender(sim, "C", "A"))
    sim.run()
    assert len(done) == 2
    # Second completion is ~2x the first: the sends serialized.
    assert done[1] >= 2 * (done[0] - cell.config.latency_s) * 0.99


def test_broadcast_round_reaches_all_members():
    sim, cell = make_cell()
    for m in ("S", "A", "B", "C"):
        cell.join(m, lambda m: None)
    idx = np.arange(100)

    p = sim.process(cell.udp_broadcast_round("S", idx, KB))
    sim.run()
    res = p.value
    assert set(res.received) == {"A", "B", "C"}
    for bm in res.received.values():
        assert bm.all()  # no loss configured
    assert res.bytes_sent == 100 * (KB + cell.config.header_bytes)


def test_broadcast_round_airtime_single_transmission():
    """Broadcast airtime is independent of the receiver count."""
    def run(n_receivers):
        sim, cell = make_cell(bandwidth=Mbps(1))
        cell.join("S", lambda m: None)
        for i in range(n_receivers):
            cell.join(f"R{i}", lambda m: None)
        p = sim.process(cell.udp_broadcast_round("S", np.arange(64), KB))
        sim.run()
        return p.value.duration

    assert run(1) == pytest.approx(run(7))


def test_broadcast_round_lossy_bitmaps_differ():
    sim, cell = make_cell(loss=0.4, seed=7)
    for m in ("S", "A", "B"):
        cell.join(m, lambda m: None)
    p = sim.process(cell.udp_broadcast_round("S", np.arange(2000), KB))
    sim.run()
    res = p.value
    a, b = res.received["A"], res.received["B"]
    assert 0 < a.sum() < 2000  # some but not all received
    assert not np.array_equal(a, b)  # per-receiver independence


def test_broadcast_round_empty_indices():
    sim, cell = make_cell()
    cell.join("S", lambda m: None)
    cell.join("A", lambda m: None)
    p = sim.process(cell.udp_broadcast_round("S", np.arange(0), KB))
    sim.run()
    assert p.value.bytes_sent == 0
    assert p.value.received["A"].size == 0


def test_broadcast_short_last_block_charged_correctly():
    sim, cell = make_cell(bandwidth=Mbps(1))
    cell.join("S", lambda m: None)
    cell.join("A", lambda m: None)
    hdr = cell.config.header_bytes
    p = sim.process(
        cell.udp_broadcast_round("S", np.arange(3), KB, last_block_size=100)
    )
    sim.run()
    assert p.value.bytes_sent == 2 * (KB + hdr) + (100 + hdr)


def test_control_exchange_requires_both_members():
    sim, cell = make_cell()
    cell.join("A", lambda m: None)

    def proc(sim):
        try:
            yield from cell.control_exchange("A", "B", KB)
        except Unreachable:
            return "raised"

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "raised"


def test_trace_counts_bytes():
    trace = Trace()
    sim, cell = make_cell(trace=trace)
    cell.join("A", lambda m: None)
    cell.join("B", lambda m: None)
    sim.process(cell.tcp_unicast(Message(src="A", dst="B", size=1000, kind="t")))
    sim.run()
    assert trace.value("net.wifi.bytes") > 1000


def test_iter_members_and_member_count():
    """The hot broadcast path iterates membership without copying."""
    sim, cell = make_cell()
    cell.join("A", lambda m: None)
    cell.join("B", lambda m: None)
    assert list(cell.iter_members()) == ["A", "B"]
    assert cell.member_count == 2
    cell.leave("A")
    assert list(cell.iter_members()) == ["B"]


def test_counter_handles_match_trace_counters():
    trace = Trace()
    sim, cell = make_cell(trace=None)
    cell2 = WifiCell(Simulator(), RngRegistry(1), WifiConfig(), name="r9",
                     trace=trace)
    cell2._count(100.0)
    cell2._count(24.0)
    assert trace.value("net.wifi.bytes") == 124.0
    assert trace.value("net.wifi.r9.bytes") == 124.0
    # Traceless cells count nothing and do not crash.
    cell._count(50.0)


def test_set_loss_invalidates_uniform_cache():
    """Replacing a member's loss model after join must not leave the
    batched broadcast path drawing with the stale cached p."""
    sim, cell = make_cell(loss=0.08)
    for m in ("A", "B", "C"):
        cell.join(m, lambda msg: None)
    assert cell._uniform_loss_p() == 0.08
    cell.set_loss("B", BernoulliLoss(0.5))
    assert cell._uniform_loss_p() is None  # heterogeneous: per-member path
    cell.set_loss("B", BernoulliLoss(0.08))
    assert cell._uniform_loss_p() == 0.08  # uniform again, batched path back
