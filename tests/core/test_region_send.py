"""Per-message sends in a region: WiFi by callbacks, no process per
tuple, and the urgent-mode / failure-report fallback for broken links."""

from repro.core.tuples import StreamTuple
from repro.net.packet import Message
from repro.sim.process import Process

from tests.core.test_node_region import PipelineApp, build

SRC, DST = "region0.p0", "region0.p1"


class Reports:
    """Stands in for the controller and logs what the region reports."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []

    def on_urgent_report(self, region, src, dst):
        self.log.append(("urgent", self.sim.now, src, dst))

    def on_failure_report(self, region, dst, reporter):
        self.log.append(("failure", self.sim.now, dst, reporter))

    def on_departure_report(self, region, phone_id):
        self.log.append(("departure", self.sim.now, phone_id))


def started_region():
    system = build(app=PipelineApp(n=0))
    system.start()
    region = system.regions[0]
    reports = Reports(system.sim)
    region.controller = reports
    return system, region, reports


def airtime(region, size=128):
    msg = Message(src=SRC, dst=DST, size=size, kind="control")
    return region.wifi._tcp_airtime(msg)[1]


def send_at(system, region, t):
    system.sim.call_at(t, region.send_control, SRC, DST, ("hb",))


def test_routing_a_tuple_constructs_no_process(monkeypatch):
    system, region, _ = started_region()
    system.sim.run(until=1.0)
    created = []
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    delivered = []
    node = region.nodes[DST]
    monkeypatch.setattr(node, "deliver", delivered.append)
    tup = StreamTuple(payload=1, size=100, entered_at=1.0, source_seq=0)
    region.route_tuple(region.nodes[SRC], "M", tup)
    system.sim.run(until=2.0)
    assert created == []
    assert [m.payload for m in delivered] == [("tuple", "M", tup)]


def test_nonmember_destination_starts_the_fallback_at_once():
    system, region, reports = started_region()
    system.sim.call_at(1.0, region.wifi.leave, DST)
    send_at(system, region, 1.0)
    system.sim.run(until=5.0)
    assert reports.log == [("urgent", 1.0, SRC, DST)]
    assert (SRC, DST) in region.urgent_links
    assert system.trace.value("net.cellular.bytes") > 0


def test_departure_mid_transfer_falls_back_to_urgent_cellular():
    system, region, reports = started_region()
    air = airtime(region)
    send_at(system, region, 1.0)
    system.sim.call_at(1.0 + air / 2, region.wifi.leave, DST)
    system.sim.run(until=5.0)
    assert reports.log == [("urgent", 1.0 + air, SRC, DST)]
    assert system.trace.value("net.cellular.bytes") > 0


def test_crash_mid_transfer_files_a_failure_report():
    system, region, reports = started_region()
    air = airtime(region)
    send_at(system, region, 1.0)
    system.sim.call_at(1.0 + air / 2, region.apply_crash, DST)
    system.sim.run(until=5.0)
    assert reports.log == [("failure", 1.0 + air, DST, SRC)]


def test_a_delivered_send_clears_the_urgent_link():
    system, region, reports = started_region()
    region.urgent_links.add((SRC, DST))
    send_at(system, region, 1.0)
    system.sim.run(until=5.0)
    assert reports.log == []
    assert region.urgent_links == set()
