"""Tests for the EdgeML split-DNN application."""

import numpy as np
import pytest

from repro.apps.edgeml import EdgeMLApp, EdgeMLParams
from repro.apps.edgeml.operators import (
    FEATURE_DIM,
    PartitionStage,
    PrototypeClassifier,
    pooled_features,
)
from repro.apps.vision import FrameSpec
from repro.baselines import NoFaultTolerance
from repro.checkpoint import MobiStreamsScheme
from repro.core.operator import OperatorContext
from repro.core.system import MobiStreamsSystem, SystemConfig
from repro.core.tuples import StreamTuple


# -- params ------------------------------------------------------------------
def test_default_split_is_even():
    p = EdgeMLParams()
    assert p.stage_layers() == [(0, 3), (3, 6), (6, 9), (9, 12)]


def test_explicit_split_points():
    p = EdgeMLParams(n_stages=3, split_points=(2, 8))
    assert p.stage_layers() == [(0, 2), (2, 8), (8, 12)]


def test_params_validation():
    with pytest.raises(ValueError):
        EdgeMLParams(camera_period_s=0)
    with pytest.raises(ValueError):
        EdgeMLParams(n_stages=13)  # more stages than layers
    with pytest.raises(ValueError):
        EdgeMLParams(n_stages=3, split_points=(4,))  # wrong count
    with pytest.raises(ValueError):
        EdgeMLParams(n_stages=3, split_points=(8, 4))  # not increasing
    with pytest.raises(ValueError):
        EdgeMLParams(n_classes=1)


def test_profile_weights_grow_and_tensors_shrink():
    profile = EdgeMLParams().stage_profile()
    weights = [s["weight_bytes"] for s in profile]
    tensors = [s["out_tensor_bytes"] for s in profile]
    assert weights == sorted(weights) and weights[0] < weights[-1]
    assert tensors == sorted(tensors, reverse=True) and tensors[0] > tensors[-1]


def test_split_point_trades_state_for_tensor_bytes():
    """The sparse_framework trade-off: a deeper first partition keeps
    more weights on the first phone but ships a thinner tensor."""
    shallow = EdgeMLParams(n_stages=2, split_points=(3,)).stage_profile()
    deep = EdgeMLParams(n_stages=2, split_points=(9,)).stage_profile()
    assert deep[0]["weight_bytes"] > shallow[0]["weight_bytes"]
    assert deep[0]["out_tensor_bytes"] < shallow[0]["out_tensor_bytes"]


# -- structure ---------------------------------------------------------------
def test_graph_is_a_partition_chain():
    app = EdgeMLApp()
    g = app.build_graph()
    g.validate()
    assert g.names() == ["S0", "S", "F0", "F1", "F2", "F3", "P", "K"]
    assert g.downstream_of("S") == ["F0"]
    assert g.upstream_of("P") == ["S0", "F3"]
    assert app.compute_phones_needed() == 6


def test_stage_count_follows_params():
    app = EdgeMLApp(EdgeMLParams(n_stages=6))
    assert app.compute_phones_needed() == 8
    assert "F5" in app.build_graph().names()


# -- operators ---------------------------------------------------------------
def _ctx():
    return OperatorContext(now=0.0, rng=None, region_name="region0")


def test_pooled_features_reflect_target_count():
    quiet = pooled_features(FrameSpec(seed=7, n_targets=0))
    busy = pooled_features(FrameSpec(seed=7, n_targets=8))
    assert quiet.shape == (FEATURE_DIM,)
    assert busy.sum() > quiet.sum()


def test_partition_stage_mean_equals_numpy_mean():
    """``PartitionStage`` averages its activation as ``sum / size``: the
    same pairwise sum and IEEE divide as ``ndarray.mean``."""
    rng = np.random.default_rng(2026)
    for scale in (1e-300, 1e-3, 1.0, 1e3, 1e300):
        for _ in range(2000):
            feat = rng.standard_normal(FEATURE_DIM) * scale
            assert float(feat.sum()) / feat.size == float(feat.mean())


def test_partition_stage_transforms_and_tracks_state():
    stage = PartitionStage("F0", layers=[0, 1, 2], weight_bytes=1024,
                           out_tensor_bytes=2048, cost_s=0.1)
    tup = StreamTuple(payload={"frame": FrameSpec(seed=3, n_targets=2),
                               "true_class": 2},
                      size=4096, entered_at=0.0, source_seq=0)
    (out,) = stage.process(tup, _ctx())
    assert out.size == 2048
    assert out.payload["true_class"] == 2
    assert stage.frames_inferred == 1
    assert stage.state_size() == 1024
    snap = stage.snapshot()
    stage.restore({"frames_inferred": 0, "activation_mean": 0.0})
    assert stage.frames_inferred == 0
    stage.restore(snap)
    assert stage.frames_inferred == 1
    assert stage.activation_mean != 0.0


def test_classifier_learns_and_snapshots():
    clf = PrototypeClassifier("P", n_classes=3, cost_s=0.1)
    rng = np.random.default_rng(0)
    protos = rng.normal(size=(3, FEATURE_DIM))
    for i in range(60):
        cls = i % 3
        feat = protos[cls] + rng.normal(scale=0.05, size=FEATURE_DIM)
        tup = StreamTuple(payload={"features": feat, "true_class": cls},
                          size=1024, entered_at=0.0, source_seq=i)
        (out,) = clf.process(tup, _ctx())
        assert set(out.payload) == {"class", "true_class", "correct"}
    # Well-separated clusters: once trained, it should be nearly perfect.
    assert clf.accuracy > 0.8
    snap = clf.snapshot()
    restored = PrototypeClassifier("P", n_classes=3, cost_s=0.1)
    restored.restore(snap)
    assert restored.predictions == clf.predictions
    assert np.array_equal(restored.prototypes, clf.prototypes)


def test_classifier_consumes_upstream_votes_silently():
    clf = PrototypeClassifier("P", n_classes=3, cost_s=0.1)
    tup = StreamTuple(payload={"class": 1, "correct": True, "true_class": 1},
                      size=64, entered_at=0.0, source_seq=0)
    assert clf.process(tup, _ctx()) == []
    assert clf.upstream_votes[1] == 1
    assert clf.predictions == 0


def test_upstream_prior_answers_cold_start():
    """Before any local training, the classifier follows the upstream
    region's consensus instead of guessing class 0."""
    clf = PrototypeClassifier("P", n_classes=3, cost_s=0.1)
    vote = StreamTuple(payload={"class": 2, "correct": True, "true_class": 2},
                       size=64, entered_at=0.0, source_seq=0)
    clf.process(vote, _ctx())
    frame = StreamTuple(payload={"features": np.zeros(FEATURE_DIM),
                                 "true_class": 0},
                        size=1024, entered_at=0.0, source_seq=1)
    (out,) = clf.process(frame, _ctx())
    assert out.payload["class"] == 2


def test_upstream_prior_breaks_prototype_near_ties():
    clf = PrototypeClassifier("P", n_classes=2, cost_s=0.1)
    # Train both classes onto (near-)identical prototypes.
    for i, cls in enumerate((0, 1)):
        tup = StreamTuple(payload={"features": np.ones(FEATURE_DIM),
                                   "true_class": cls},
                          size=1024, entered_at=0.0, source_seq=i)
        clf.process(tup, _ctx())
    vote = StreamTuple(payload={"class": 1, "correct": True, "true_class": 1},
                       size=64, entered_at=0.0, source_seq=2)
    clf.process(vote, _ctx())
    probe = StreamTuple(payload={"features": np.ones(FEATURE_DIM),
                                 "true_class": 1},
                        size=1024, entered_at=0.0, source_seq=3)
    (out,) = clf.process(probe, _ctx())
    assert out.payload["class"] == 1  # argmin alone would say 0


# -- end to end --------------------------------------------------------------
def run_app(app, scheme=NoFaultTolerance, duration=400.0, regions=1, seed=3):
    cfg = SystemConfig(n_regions=regions, phones_per_region=8,
                       idle_per_region=2, master_seed=seed)
    s = MobiStreamsSystem(cfg, app, scheme)
    s.run(duration)
    return s


def test_edgeml_produces_classifications():
    s = run_app(EdgeMLApp())
    m = s.metrics(warmup_s=60.0)
    rm = m.per_region["region0"]
    assert rm.output_tuples > 50
    assert 0.3 < rm.throughput_tps < 0.7  # lightly below the 0.5/s camera
    assert s.trace.value("op_errors") == 0
    region = s.regions[0]
    clf = region.nodes[region.placement.node_for("P", 0)].ops["P"]
    assert clf.predictions > 50
    assert clf.accuracy > 1.5 / clf.n_classes  # visibly above chance


def test_edgeml_with_checkpointing_recovers_partition_crash():
    cfg = SystemConfig(n_regions=1, phones_per_region=8, idle_per_region=4,
                       master_seed=3)
    s = MobiStreamsSystem(cfg, EdgeMLApp(), MobiStreamsScheme)
    s.start()
    s.injector.crash_at(350.0, ["region0.p2"])  # a partition phone
    s.run(800.0)
    rec = s.trace.last("recovery_finished")
    assert rec is not None and rec.data["outcome"] == "recovered"
    assert s.trace.count_of("sink_output", since=400.0) > 20
    assert s.trace.value("op_errors") == 0


def test_edgeml_cascades_over_regions():
    s = run_app(EdgeMLApp(), regions=2, duration=500.0)
    m = s.metrics(warmup_s=100.0)
    assert m.per_region["region1"].output_tuples > 30
    assert m.cellular_bytes > 0
    r1 = s.regions[1]
    clf = r1.nodes[r1.placement.node_for("P", 0)].ops["P"]
    assert clf.upstream_votes.sum() > 0  # region0's consensus arrived
