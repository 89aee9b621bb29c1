"""Tests for the data-center Ethernet model."""

import pytest

from repro.net import EthernetSwitch, Message
from repro.sim import Simulator, Trace
from repro.util import MB, Mbps


def test_basic_delivery():
    sim = Simulator()
    sw = EthernetSwitch(sim, port_bps=Mbps(800), latency_s=0.0)
    inbox = []
    sw.attach("s1", lambda m: None)
    sw.attach("s2", inbox.append)
    p = sim.process(sw.send(Message(src="s1", dst="s2", size=MB, kind="t")))
    sim.run()
    assert p.value is True
    assert len(inbox) == 1
    assert sim.now == pytest.approx(MB * 8 / Mbps(800))


def test_unknown_port_raises():
    sim = Simulator()
    sw = EthernetSwitch(sim)
    sw.attach("s1", lambda m: None)

    def proc(sim):
        try:
            yield from sw.send(Message(src="s1", dst="nope", size=1, kind="t"))
        except KeyError:
            return "raised"

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "raised"


def test_ethernet_is_fast_compared_to_cellular():
    """A 200 KB image crosses Ethernet in milliseconds (not the bottleneck)."""
    sim = Simulator()
    sw = EthernetSwitch(sim)
    sw.attach("a", lambda m: None)
    sw.attach("b", lambda m: None)
    sim.process(sw.send(Message(src="a", dst="b", size=200 * 1024, kind="img")))
    sim.run()
    assert sim.now < 0.01


def test_trace_counter():
    trace = Trace()
    sim = Simulator()
    sw = EthernetSwitch(sim, trace=trace)
    sw.attach("a", lambda m: None)
    sw.attach("b", lambda m: None)
    sim.process(sw.send(Message(src="a", dst="b", size=500, kind="t")))
    sim.run()
    assert trace.value("net.ethernet.bytes") == 500


def test_rate_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        EthernetSwitch(sim, port_bps=0)
