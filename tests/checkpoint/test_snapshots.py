"""Copy-on-write snapshot protocol: freeze/writable/adopt, chunk store,
and operator ports."""

import numpy as np
import pytest

from repro.checkpoint.snapshots import (
    ChunkStore,
    adopt_array,
    chunk_digest,
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


# -- chunk store --------------------------------------------------------------
def test_chunk_digest_distinguishes_dtype_and_shape():
    a = np.zeros(16, dtype=np.float64)
    assert chunk_digest(a) == chunk_digest(a.copy())
    assert chunk_digest(a) != chunk_digest(np.zeros(16, dtype=np.float32))
    assert chunk_digest(a) != chunk_digest(np.zeros((4, 4), dtype=np.float64))


def test_chunk_store_interns_byte_equal_frozen_arrays():
    store = ChunkStore()
    a = freeze_array(np.arange(1024, dtype=np.float64))
    b = freeze_array(np.arange(1024, dtype=np.float64))
    assert store.intern(a) is a
    assert store.intern(b) is a  # collapsed onto the canonical chunk
    assert store.hits == 1 and store.misses == 1
    assert store.shared_bytes == a.nbytes


def test_chunk_store_rejects_writable_arrays():
    """Interning a writable array would let a later in-place write
    rewrite every snapshot sharing the chunk."""
    with pytest.raises(ValueError):
        ChunkStore().intern(np.arange(64, dtype=np.float64))


def test_chunk_store_id_memo_short_circuits_rehash():
    store = ChunkStore()
    a = freeze_array(np.arange(512, dtype=np.float64))
    store.intern(a)
    store.intern(a)
    store.intern(a)
    assert store.hits == 2 and store.misses == 1


def test_chunk_store_frees_pruned_chunks_and_memo_entries():
    store = ChunkStore()
    a = freeze_array(np.arange(256, dtype=np.float64))
    key = chunk_digest(a)
    store.intern(a)
    assert key in store._by_digest
    assert store._id_memo
    del a
    import gc

    gc.collect()
    assert key not in store._by_digest  # weakly held: pruning frees bytes
    assert not store._id_memo  # the id memo self-evicts with its array


def test_intern_state_only_touches_large_frozen_leaves():
    store = ChunkStore()
    small = freeze_array(np.arange(4, dtype=np.float64))
    live = np.arange(1024, dtype=np.float64)
    big = freeze_array(np.arange(1024, dtype=np.float64))
    state = {"small": small, "live": live, "big": big, "n": 5}
    out = store.intern_state(state)
    assert out["small"] is small and out["live"] is live and out["big"] is big
    dup = {"big": freeze_array(np.arange(1024, dtype=np.float64))}
    assert store.intern_state(dup)["big"] is big
    # List containers are snapshot state too (freeze_state keeps them):
    # large frozen leaves inside them must intern the same way.
    listed = {"bufs": [freeze_array(np.arange(1024, dtype=np.float64))]}
    assert store.intern_state(listed)["bufs"][0] is big


# -- checkpoint store integration ---------------------------------------------
def test_checkpoint_store_shares_unchanged_state_across_versions():
    store = CheckpointStore()
    blob = np.arange(4096, dtype=np.float64)
    # A fresh byte-equal frozen copy each version (the worst case —
    # same-object sharing is already free): the first stored copy
    # becomes the canonical chunk, the second collapses onto it.
    first = freeze_array(blob.copy())
    store.begin_version(1, ["n0"])
    store.put(1, "n0", frozenset(["op"]), {"op": {"weights": first}}, 4096)
    store.begin_version(2, ["n0"])
    store.put(2, "n0", frozenset(["op"]),
              {"op": {"weights": freeze_array(blob.copy())}}, 4096)
    stored = store.state_for(2, frozenset(["op"]))[0]["op"]["weights"]
    assert stored is first
    assert store.chunks.shared_bytes >= blob.nbytes


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
