"""Focused unit tests for the per-phone node runtime.

Channel blocking, round-robin fairness, dedup, operator-error
containment, and the pending-payload accessor used by handoffs.
"""


from repro.baselines import NoFaultTolerance
from repro.core.app import AppSpec
from repro.core.graph import QueryGraph
from repro.core.operator import MapOperator, Operator, SinkOperator, SourceOperator
from repro.core.placement import Placement
from repro.core.system import MobiStreamsSystem, SystemConfig
from repro.core.tuples import StreamTuple
from repro.net.packet import Message
from repro.util import KB


class Exploding(Operator):
    """Raises on a poison payload; processes everything else."""

    def process(self, tup, ctx):
        if tup.payload == "poison":
            raise RuntimeError("boom")
        return [tup.derive(tup.payload, tup.size)]

    def cost(self, tup):
        return 0.0


class JoinApp(AppSpec):
    """Two sources feeding one join node (multi-channel runtime)."""

    name = "join"

    def __init__(self, n=30):
        self.n = n

    def build_graph(self):
        g = QueryGraph()
        g.add_operator(SourceOperator("SA"))
        g.add_operator(SourceOperator("SB"))
        g.add_operator(MapOperator("J", lambda x: x))
        g.add_operator(SinkOperator("K"))
        g.connect("SA", "J").connect("SB", "J")
        g.chain("J", "K")
        return g

    def build_placement(self, phone_ids):
        return Placement.pack_groups([["SA"], ["SB"], ["J"], ["K"]], phone_ids)

    def build_workloads(self, rng, region_index):
        def wl(tag):
            for i in range(self.n):
                yield (1.0, f"{tag}{i}", 1 * KB)
        return {"SA": wl("a"), "SB": wl("b")}


def build(app=None, **kw):
    cfg = SystemConfig(n_regions=1, phones_per_region=4, idle_per_region=1,
                       master_seed=5, **kw)
    return MobiStreamsSystem(cfg, app or JoinApp(), NoFaultTolerance)


def test_blocked_channel_queues_but_does_not_process():
    s = build()
    s.start()
    region = s.regions[0]
    j = region.nodes[region.placement.node_for("J", 0)]
    sa = region.placement.node_for("SA", 0)
    s.run(5.0)
    j.block_channel(sa)
    s.run(20.0)
    # SA tuples pile up on the blocked channel; SB tuples still flow.
    assert j.queued_items() > 0
    outs = [r.data for r in s.trace.select("sink_output")]
    assert any(str(o.get("seq", "")) != "" for o in outs)
    sb_flowing = sum(1 for _ in s.trace.select("sink_output"))
    assert sb_flowing > 0
    j.unblock_all()
    s.run(40.0)
    # Blocked tuples drain after unblocking; nothing was lost.
    assert j.queued_items() == 0


def test_unblock_channel_selectively():
    s = build()
    s.start()
    region = s.regions[0]
    j = region.nodes[region.placement.node_for("J", 0)]
    j.block_channel("x")
    j.block_channel("y")
    assert j.blocked_channels == {"x", "y"}
    j.unblock_channel("x")
    assert j.blocked_channels == {"y"}
    j.unblock_all()
    assert j.blocked_channels == set()


def test_round_robin_drains_both_channels():
    """Neither source starves the other at the join."""
    s = build(app=JoinApp(n=40))
    s.run(60.0)
    payloads = set()
    for rec in s.trace.select("sink_output"):
        payloads.add(rec.data["seq"])
    # Both streams' sequence numbers appear steadily.
    assert len(payloads) > 30


def test_operator_exception_drops_tuple_not_node():
    class PoisonApp(AppSpec):
        name = "poison"

        def build_graph(self):
            g = QueryGraph()
            g.add_operator(SourceOperator("S"))
            g.add_operator(Exploding("X"))
            g.add_operator(SinkOperator("K"))
            g.chain("S", "X", "K")
            return g

        def build_placement(self, phone_ids):
            return Placement.pack_groups([["S"], ["X"], ["K"]], phone_ids)

        def build_workloads(self, rng, region_index):
            def wl():
                for i in range(10):
                    yield (1.0, "poison" if i == 3 else i, 1 * KB)
            return {"S": wl()}

    s = build(app=PoisonApp())
    s.run(40.0)
    assert s.trace.value("op_errors") == 1
    outs = [r for r in s.trace.select("sink_output")]
    assert len(outs) == 9  # the poison tuple vanished, the node survived
    err = s.trace.last("op_error")
    assert "boom" in err.data["error"]


def test_emit_key_dedup_drops_second_copy():
    s = build()
    s.start()
    region = s.regions[0]
    j = region.nodes[region.placement.node_for("J", 0)]
    tup = StreamTuple(payload="x", size=10, entered_at=0.0, source_seq=1,
                      emit_key=("SA", ("r", 1), 0))
    assert j._accept("J", tup)
    assert not j._accept("J", tup.derive("x", 10) and tup)  # same key again


def test_tuples_without_emit_key_always_accepted():
    s = build()
    s.start()
    region = s.regions[0]
    j = region.nodes[region.placement.node_for("J", 0)]
    t1 = StreamTuple(payload="x", size=10, entered_at=0.0)
    t2 = StreamTuple(payload="x", size=10, entered_at=0.0)
    assert j._accept("J", t1) and j._accept("J", t2)


def test_pending_payloads_snapshot_queue_contents():
    s = build()
    s.start()
    region = s.regions[0]
    j = region.nodes[region.placement.node_for("J", 0)]
    j.block_channel(region.placement.node_for("SA", 0))
    j.block_channel(region.placement.node_for("SB", 0))
    s.run(10.0)
    pending = j.pending_payloads()
    assert pending
    assert all(p[0] == "tuple" for p in pending)
    assert len(pending) == j.queued_items()


def test_kill_clears_queues_and_ignores_deliveries():
    s = build()
    s.start()
    region = s.regions[0]
    j = region.nodes[region.placement.node_for("J", 0)]
    s.run(5.0)
    j.kill("test")
    assert not j.alive
    assert j.queued_items() == 0
    j.deliver(Message(src="z", dst=j.id, size=10, kind="tuple",
                      payload=("tuple", "J", StreamTuple(payload=1, size=1,
                                                         entered_at=0.0))))
    assert j.queued_items() == 0  # dead nodes accept nothing
    j.kill("again")  # idempotent


def test_state_size_sums_hosted_operators():
    from repro.core.operator import StatefulOperator

    class Passthrough(StatefulOperator):
        def process(self, tup, ctx):
            return [tup.derive(tup.payload, tup.size)]

    class TwoOpApp(AppSpec):
        name = "twoop"

        def build_graph(self):
            g = QueryGraph()
            g.add_operator(SourceOperator("S"))
            g.add_operator(Passthrough("A", state_size=100))
            g.add_operator(Passthrough("B", state_size=28))
            g.add_operator(SinkOperator("K"))
            g.chain("S", "A", "B", "K")
            return g

        def build_placement(self, phone_ids):
            # A and B share one phone.
            return Placement.from_groups({
                phone_ids[0]: ["S"], phone_ids[1]: ["A", "B"],
                phone_ids[2]: ["K"],
            })

        def build_workloads(self, rng, region_index):
            return {}

    cfg = SystemConfig(n_regions=1, phones_per_region=3, idle_per_region=0,
                       master_seed=5)
    s = MobiStreamsSystem(cfg, TwoOpApp(), NoFaultTolerance)
    s.start()
    region = s.regions[0]
    node = region.nodes[region.placement.node_for("A", 0)]
    assert node.state_size() == 128
    snap = node.snapshot_state()
    assert set(snap) == {"A", "B"}


def test_repr_shows_hosted_operators_and_their_chains():
    s = build()
    s.start()
    region = s.regions[0]
    j = region.nodes[region.placement.node_for("J", 0)]
    assert repr(j) == f"<NodeRuntime {j.id} op_chain={{'J': 0}} alive>"
    j.kill("test")
    assert repr(j).endswith(" dead>")
