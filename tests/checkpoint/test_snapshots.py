"""Copy-on-write snapshot protocol: freeze/writable/adopt and operator
ports."""

import numpy as np
import pytest

from repro.checkpoint.snapshots import (
    adopt_array,
    freeze_array,
    freeze_state,
    thaw_state,
    writable,
)
from repro.checkpoint.store import CheckpointStore


# -- the CoW triple ----------------------------------------------------------
def test_freeze_is_in_place_and_read_only():
    arr = np.arange(8, dtype=np.float64)
    frozen = freeze_array(arr)
    assert frozen is arr
    with pytest.raises(ValueError):
        frozen[0] = 1.0


def test_writable_copies_only_when_frozen():
    arr = np.arange(4, dtype=np.float64)
    assert writable(arr) is arr  # unshared: no copy
    frozen = freeze_array(arr)
    thawed = writable(frozen)
    assert thawed is not frozen
    thawed[0] = 99.0
    assert frozen[0] == 0.0  # the shared snapshot never moves


def test_adopt_array_shares_frozen_and_copies_everything_else():
    frozen = freeze_array(np.arange(3, dtype=np.float64))
    assert adopt_array(frozen, dtype=np.float64) is frozen
    # dtype mismatch, writable array, plain list: all materialize fresh.
    assert adopt_array(frozen, dtype=np.int64) is not frozen
    live = np.arange(3, dtype=np.float64)
    assert adopt_array(live, dtype=np.float64) is not live
    assert adopt_array([1.0, 2.0], dtype=np.float64).dtype == np.float64


def test_freeze_state_and_thaw_state_round_trip():
    state = {"w": np.ones(4), "nested": {"seen": [1, 2]}, "win": (3, 5), "k": 3}
    frozen = freeze_state(state)
    assert frozen is not state
    assert frozen["w"] is state["w"]  # frozen in place, shared
    assert not frozen["w"].flags.writeable
    # Containers are rebuilt (no aliasing into the operator's state)...
    assert frozen["nested"]["seen"] == [1, 2]
    assert frozen["nested"]["seen"] is not state["nested"]["seen"]
    thawed = thaw_state(frozen)
    # ...and types survive the round trip: a restored replica's state
    # compares equal to what was snapshotted (tuples stay hashable).
    assert isinstance(thawed["nested"]["seen"], list)
    assert thawed["win"] == (3, 5) and isinstance(thawed["win"], tuple)
    assert thawed["w"] is frozen["w"]  # arrays stay shared; CoW on write


# -- operator ports -----------------------------------------------------------
def test_partition_stage_snapshot_is_o1_and_restore_shares():
    from repro.apps.edgeml.operators import PartitionStage

    st = PartitionStage("F0", layers=[0, 1], weight_bytes=512 * 1024,
                        out_tensor_bytes=1024, cost_s=0.1)
    s1, s2 = st.snapshot(), st.snapshot()
    assert s1["weights"] is s2["weights"]  # unchanged stage: O(1)/version
    assert not s1["weights"].flags.writeable
    st2 = PartitionStage("F0", layers=[0, 1], weight_bytes=512 * 1024,
                         out_tensor_bytes=1024, cost_s=0.1)
    st2.restore(s1)
    assert st2.weights is s1["weights"]  # adoption, not a copy


def test_classifier_cow_keeps_checkpoints_intact():
    from repro.apps.edgeml.operators import FEATURE_DIM, PrototypeClassifier
    from repro.core.operator import OperatorContext
    from repro.core.tuples import StreamTuple
    from repro.sim.rng import RngRegistry

    op = PrototypeClassifier("P", n_classes=3, cost_s=0.1)
    ctx = OperatorContext(now=0.0, rng=RngRegistry(0))
    tup = StreamTuple({"features": np.ones(FEATURE_DIM), "true_class": 1}, 64, 0.0)
    op.process(tup, ctx)
    snap = op.snapshot()
    before = np.array(snap["prototypes"])
    op.process(tup, ctx)  # post-snapshot learning must CoW, not corrupt
    assert np.array_equal(snap["prototypes"], before)
    restored = PrototypeClassifier("P", n_classes=3, cost_s=0.1)
    restored.restore(snap)
    restored.process(tup, ctx)  # adopted arrays CoW on the next update too
    assert np.array_equal(snap["prototypes"], before)


def test_svm_cow_keeps_checkpoints_intact():
    from repro.apps.signalguru.svm import LinearSVM

    svm = LinearSVM(4)
    svm.partial_fit(np.ones(4), 1.0)
    snap = svm.snapshot()
    w_before = np.array(snap["w"])
    svm.partial_fit(np.ones(4), -1.0)
    assert np.array_equal(snap["w"], w_before)
    clone = LinearSVM(4)
    clone.restore(snap)
    clone.partial_fit(np.ones(4), -1.0)
    assert np.array_equal(snap["w"], w_before)


def test_stateful_operator_snapshot_freezes_arrays():
    from repro.core.operator import StatefulOperator

    class Acc(StatefulOperator):
        def process(self, tup, ctx):
            return []

    op = Acc("acc")
    op.state = {"hist": np.zeros(8), "count": 2}
    snap = op.snapshot()
    assert snap is not op.state
    assert snap["hist"] is op.state["hist"]
    assert not snap["hist"].flags.writeable
    op.restore(snap)
    assert op.state["count"] == 2


#: Peak traced memory (KB) of the loop below with eager per-version
#: ``.copy()`` snapshots, measured once before snapshots became
#: copy-on-write (commit 975125f; CPython 3.11, numpy 2.4, x86_64).
#: The eager semantics are gone, so the number is pinned, not re-measured.
EAGER_SNAPSHOT_PEAK_KB = 9537.8


def test_cow_snapshots_cut_checkpoint_peak_memory_at_least_2x():
    """Ten checkpoint versions of EdgeML's default split (~4.6 MB of
    partition weights plus the classifier head), only the classifier
    learning between versions: an unchanged stage costs O(1) per version,
    so the tracemalloc peak must be at most half the eager-copy one."""
    import tracemalloc

    from repro.apps.edgeml.app import EdgeMLParams
    from repro.apps.edgeml.operators import (
        FEATURE_DIM,
        PartitionStage,
        PrototypeClassifier,
    )
    from repro.core.operator import OperatorContext
    from repro.core.tuples import StreamTuple
    from repro.sim.rng import RngRegistry

    params = EdgeMLParams()
    ops = {f"F{k}": PartitionStage(
        f"F{k}", layers=info["layers"], weight_bytes=info["weight_bytes"],
        out_tensor_bytes=info["out_tensor_bytes"], cost_s=info["cost_s"])
        for k, info in enumerate(params.stage_profile())}
    classifier = ops["P"] = PrototypeClassifier(
        "P", n_classes=params.n_classes, cost_s=params.classifier_cost_s)
    for op in ops.values():
        getattr(op, "weights", None)  # materialize weight state up front
    ctx = OperatorContext(now=0.0, rng=RngRegistry(0))
    gen = np.random.default_rng(0xC0FFEE)
    store = CheckpointStore()
    tracemalloc.start()
    try:
        for version in range(1, 11):
            store.begin_version(version, list(ops))
            for node_id, op in ops.items():
                store.put(version, node_id, frozenset([node_id]),
                          {op.name: op.snapshot()}, max(1, op.state_size()))
            classifier.process(StreamTuple(
                {"features": gen.standard_normal(FEATURE_DIM), "true_class": 1},
                1024, 0.0), ctx)
        peak_kb = tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()
    assert peak_kb <= EAGER_SNAPSHOT_PEAK_KB / 2, peak_kb
