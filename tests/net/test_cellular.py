"""Tests for the cellular network model."""

import pytest

from repro.net import CellularConfig, CellularNetwork, Message
from repro.net.cellular import UnknownEndpoint
from repro.sim import RngRegistry, Simulator, Trace
from repro.util import KB, MB, Mbps


def make_net(trace=None, **cfg_kwargs):
    sim = Simulator()
    cfg = CellularConfig(**cfg_kwargs)
    net = CellularNetwork(sim, RngRegistry(42), cfg, trace=trace)
    return sim, net


def test_phone_to_controller_crosses_uplink_only():
    sim, net = make_net(
        uplink_phone_bps=(Mbps(0.1), Mbps(0.1)),
        uplink_capacity_bps=Mbps(10),
        latency_s=0.0,
        header_bytes=0,
    )
    inbox = []
    net.register_phone("p1", lambda m: None)
    net.register_wired("controller", inbox.append)
    size = 12_500  # 1 s at 0.1 Mbps
    p = sim.process(net.send(Message(src="p1", dst="controller", size=size, kind="c")))
    sim.run()
    assert p.value is True
    assert len(inbox) == 1
    assert sim.now == pytest.approx(1.0)


def test_phone_to_phone_crosses_both_directions():
    sim, net = make_net(
        uplink_phone_bps=(Mbps(0.1), Mbps(0.1)),
        downlink_phone_bps=(Mbps(0.5), Mbps(0.5)),
        latency_s=0.0,
        header_bytes=0,
    )
    inbox = []
    net.register_phone("a", lambda m: None)
    net.register_phone("b", inbox.append)
    size = 12_500  # uplink 1 s + downlink 0.2 s
    sim.process(net.send(Message(src="a", dst="b", size=size, kind="t")))
    sim.run()
    assert len(inbox) == 1
    assert sim.now == pytest.approx(1.2)


def test_unknown_endpoint_raises():
    sim, net = make_net()
    net.register_phone("a", lambda m: None)

    def proc(sim):
        try:
            yield from net.send(Message(src="a", dst="nope", size=1, kind="t"))
        except UnknownEndpoint:
            return "raised"

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "raised"


def test_phone_rates_within_band():
    _, net = make_net()
    for i in range(20):
        net.register_phone(f"p{i}", lambda m: None)
        up, dn = net.phone_rates(f"p{i}")
        assert Mbps(0.016) <= up <= Mbps(0.32)
        assert Mbps(0.35) <= dn <= Mbps(1.14)


def test_uplink_contention_many_phones():
    """n simultaneous uploads share the tower capacity (Fig. 9 mechanism)."""

    def run(n):
        sim, net = make_net(
            uplink_phone_bps=(Mbps(0.32), Mbps(0.32)),
            uplink_capacity_bps=Mbps(0.64),
            latency_s=0.0,
            header_bytes=0,
        )
        net.register_wired("ctl", lambda m: None)
        for i in range(n):
            net.register_phone(f"p{i}", lambda m: None)
        for i in range(n):
            sim.process(
                net.send(Message(src=f"p{i}", dst="ctl", size=MB, kind="s"))
            )
        sim.run()
        return sim.now

    t1, t4, t8 = run(1), run(4), run(8)
    assert t1 < t4 < t8
    # With tower capacity 2 phone-links, 8 phones take ~4x one phone-pair.
    assert t8 == pytest.approx(4 * t4 / 2, rel=0.01)


def test_delivery_to_unregistered_mid_transfer_returns_false():
    sim, net = make_net(latency_s=0.0)
    net.register_phone("a", lambda m: None)
    net.register_phone("b", lambda m: None)
    p = sim.process(net.send(Message(src="a", dst="b", size=MB, kind="t")))
    sim.call_in(0.01, lambda: net.unregister("b"))
    sim.run()
    assert p.value is False


def test_trace_counts_cellular_bytes():
    trace = Trace()
    sim, net = make_net(trace=trace, latency_s=0.0)
    net.register_phone("a", lambda m: None)
    net.register_wired("ctl", lambda m: None)
    sim.process(net.send(Message(src="a", dst="ctl", size=KB, kind="c")))
    sim.run()
    assert trace.value("net.cellular.bytes") >= KB


def test_config_validation():
    with pytest.raises(ValueError):
        CellularConfig(uplink_capacity_bps=0)
    with pytest.raises(ValueError):
        CellularConfig(uplink_phone_bps=(Mbps(0.5), Mbps(0.1)))
