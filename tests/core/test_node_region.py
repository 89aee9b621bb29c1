"""Integration tests for node runtime + region mechanics."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import NoFaultTolerance
from repro.core.app import AppSpec
from repro.core.graph import QueryGraph
from repro.core.operator import (
    MapOperator,
    SinkOperator,
    SourceOperator,
)
from repro.core.placement import Placement
from repro.core.region import Region
from repro.core.system import MobiStreamsSystem, SystemConfig


class PipelineApp(AppSpec):
    """S -> M -> K across three phones, 20 tuples at 1/s."""

    name = "pipeline"

    def __init__(self, cost=0.05, n=20, fanout=False):
        self.cost = cost
        self.n = n
        self.fanout = fanout

    def build_graph(self):
        g = QueryGraph()
        g.add_operator(SourceOperator("S"))
        g.add_operator(MapOperator("M", lambda p: p * 2, cost_s=self.cost))
        if self.fanout:
            g.add_operator(MapOperator("M2", lambda p: p + 1, cost_s=self.cost))
        g.add_operator(SinkOperator("K"))
        if self.fanout:
            g.connect("S", "M").connect("S", "M2")
            g.connect("M", "K").connect("M2", "K")
        else:
            g.chain("S", "M", "K")
        return g

    def build_placement(self, phone_ids):
        ops = [["S"], ["M"], ["K"]]
        if self.fanout:
            ops = [["S"], ["M"], ["M2"], ["K"]]
        return Placement.pack_groups(ops, phone_ids)

    def build_workloads(self, rng, region_index):
        if region_index != 0:
            return {}

        def wl():
            for i in range(self.n):
                yield (1.0, i, 5000)

        return {"S": wl()}


def build(app=None, phones=3, idle=1, regions=1, scheme=NoFaultTolerance, seed=1):
    cfg = SystemConfig(
        n_regions=regions, phones_per_region=phones, idle_per_region=idle,
        master_seed=seed,
    )
    return MobiStreamsSystem(cfg, app or PipelineApp(), scheme)


def test_pipeline_delivers_all_tuples():
    s = build()
    s.run(60.0)
    m = s.metrics()
    assert m.per_region["region0"].output_tuples == 20


def test_latency_includes_processing_and_network():
    s = build()
    s.run(60.0)
    m = s.metrics()
    lat = m.per_region["region0"].mean_latency_s
    assert lat > 0.05  # at least the map cost
    assert lat < 5.0


def test_fanout_diamond_no_dedup_loss():
    """A diamond (S feeds M and M2, both feed K) must emit 2 results/tuple."""
    s = build(app=PipelineApp(fanout=True), phones=4)
    s.run(60.0)
    m = s.metrics()
    assert m.per_region["region0"].output_tuples == 40


def test_intra_node_chaining():
    """All ops on one phone: no WiFi traffic for the data path."""

    class OnePhone(PipelineApp):
        def build_placement(self, phone_ids):
            return Placement.from_groups({phone_ids[0]: ["S", "M", "K"]})

    s = build(app=OnePhone(), phones=1, idle=0)
    s.run(60.0)
    m = s.metrics()
    assert m.per_region["region0"].output_tuples == 20
    assert m.wifi_bytes == 0


def test_cascade_forwards_between_regions():
    s = build(regions=3)
    s.run(200.0)
    m = s.metrics()
    for name in ("region0", "region1", "region2"):
        assert m.per_region[name].output_tuples == 20
    # End-to-end latency grows down the cascade.
    assert (
        m.per_region["region2"].mean_latency_s
        > m.per_region["region0"].mean_latency_s
    )


def test_crash_without_ft_stops_region():
    s = build()
    s.injector.crash_at(5.0, ["region0.p1"])  # the M node
    s.run(120.0)
    region = s.regions[0]
    assert region.stopped
    m = s.metrics()
    assert m.per_region["region0"].output_tuples < 20


def test_crash_of_idle_phone_is_harmless():
    s = build()
    s.injector.crash_at(5.0, ["region0.idle0"])
    s.run(60.0)
    assert not s.regions[0].stopped
    assert s.metrics().per_region["region0"].output_tuples == 20


def test_departure_without_ft_stops_region():
    """Prior schemes treat departures as failures (base has no handling)."""
    s = build()
    s.sim.call_at(5.0, lambda: s.apply_departure("region0.p1"))
    s.run(120.0)
    assert s.regions[0].stopped


def test_urgent_mode_keeps_tuples_flowing_briefly():
    """Between departure and controller reaction, traffic uses cellular."""
    s = build()
    s.sim.call_at(5.5, lambda: s.apply_departure("region0.p1"))
    s.run(8.0)  # before the departure is confirmed/acted on
    assert any(True for _ in s.trace.select("urgent_mode"))


def test_region_stop_is_idempotent():
    s = build()
    s.run(30.0)
    s.regions[0].stop()
    s.regions[0].stop()
    assert s.regions[0].stopped


def test_pick_replacements_prefers_idle():
    s = build(phones=3, idle=2)
    s.run(1.0)
    region = s.regions[0]
    repl = region.pick_replacements(["region0.p1"])
    assert repl == {"region0.p1": "region0.idle0"}


def test_pick_replacements_exhausted():
    s = build(phones=3, idle=1)
    s.run(1.0)
    region = s.regions[0]
    assert region.pick_replacements(["region0.p0", "region0.p1"]) is None


def eager_pick_replacements(region, gone):
    """Every eligible idle phone listed first, then one popped per failure."""
    busy = set(region.placement.used_nodes()) - set(gone)
    candidates = [pid for pid in region.idle_ids if region.phones[pid].alive
                  and region.wifi.is_member(pid) and pid not in busy]
    mapping = {}
    for failed in gone:
        if not candidates:
            return None
        mapping[failed] = candidates.pop(0)
    return mapping


PHONE_IDS = [f"p{i}" for i in range(10)]


@st.composite
def replacement_states(draw):
    """A region's replacement inputs: idle list order, liveness, WiFi
    membership, busy phones, and a ``gone`` list that may repeat phones
    or outnumber the supply."""
    idle = draw(st.lists(st.sampled_from(PHONE_IDS), unique=True))
    alive = {pid: draw(st.booleans()) for pid in PHONE_IDS}
    members = draw(st.sets(st.sampled_from(PHONE_IDS)))
    busy = draw(st.lists(st.sampled_from(PHONE_IDS), unique=True))
    gone = draw(st.lists(st.sampled_from(PHONE_IDS), max_size=8))
    region = SimpleNamespace(
        idle_ids=idle,
        phones={pid: SimpleNamespace(alive=alive[pid]) for pid in PHONE_IDS},
        wifi=SimpleNamespace(is_member=members.__contains__),
        placement=SimpleNamespace(used_nodes=lambda: list(busy)),
    )
    return region, gone


@settings(max_examples=300, deadline=None)
@given(replacement_states())
def test_pick_replacements_equals_eager_reference(state):
    region, gone = state
    want = eager_pick_replacements(region, gone)
    got = Region.pick_replacements(region, gone)
    assert got == want
    if got is not None:
        assert list(got.items()) == list(want.items())


def test_metrics_warmup_window():
    s = build()
    s.run(60.0)
    m = s.metrics(warmup_s=10.0)
    assert m.per_region["region0"].output_tuples < 20


def test_system_double_start_rejected():
    s = build()
    s.start()
    with pytest.raises(RuntimeError):
        s.start()


def test_unknown_phone_crash_rejected():
    s = build()
    s.start()
    with pytest.raises(KeyError):
        s.injector.on_crash(s._apply_crash)  # re-register fine
        s._apply_crash("ghost", "test")
