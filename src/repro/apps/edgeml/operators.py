"""EdgeML's operators: a split DNN inference pipeline on phones.

S0: consensus from the previous region   S: the camera source
F0..F{k-1}: network partitions (each holds its layers' weights as
            checkpointable state and emits the boundary activation)
P: online nearest-prototype classifier   K: sink (to the next region)

The compute is real in the repo's usual sense: the first partition
renders the synthetic frame and average-pools it into a feature vector,
and every partition applies deterministic residual random-projection
layers (weights derived from fixed seeds, as a pretrained network's
would be).  What the fault-tolerance schemes feel is the *shape* of the
workload: multi-megabyte per-operator weight state and inter-stage
tensors whose size depends on where the network is split —
sparse_framework's trade-off, scripted.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.vision import pooled_features
from repro.checkpoint import snapshots
from repro.core.operator import Operator, OperatorContext, SinkOperator, SourceOperator
from repro.core.tuples import StreamTuple

#: Dimension of the inter-stage activation vector (4x4 pooled frame).
FEATURE_DIM = 16
#: Seed base for the deterministic "pretrained" layer weights.
WEIGHT_SEED = 0xED6E


def layer_weights(layer: int) -> np.ndarray:
    """The fixed random-projection matrix of one global layer index."""
    gen = np.random.default_rng(WEIGHT_SEED + layer)
    return gen.normal(0.0, 1.0 / np.sqrt(FEATURE_DIM),
                      size=(FEATURE_DIM, FEATURE_DIM))


def weight_blob(layers: Sequence[int], weight_bytes: int) -> np.ndarray:
    """A partition's full-resolution weight tensor, deterministic in its
    layer range and physically sized to its simulated ``weight_bytes``.

    The projection matrices of :func:`layer_weights` are the *logic* of
    the partition; this blob is the state a checkpoint must actually
    hold in host memory — megabytes per stage, constant for the whole
    run.  It is returned frozen (read-only): every snapshot of an
    unchanged partition shares this one buffer.
    """
    gen = np.random.default_rng(WEIGHT_SEED + 7919 * (int(layers[0]) + 1))
    blob = gen.standard_normal(max(1, weight_bytes // 8))
    blob.flags.writeable = False
    return blob


class UplinkSource(SourceOperator):
    """S0: consensus predictions arriving from the previous region."""

    def __init__(self, name: str = "S0") -> None:
        super().__init__(name)


class CameraFeed(SourceOperator):
    """S: the on-device camera producing frames to classify."""

    def __init__(self, name: str = "S") -> None:
        super().__init__(name)


class PartitionStage(Operator):
    """F{k}: one partition of the split network.

    Holds its layers' weights as checkpointable state (the dominant
    bytes a scheme must preserve) plus a small running activation
    calibration that mutates with every frame — so a restored replica
    is only correct if the checkpoint actually carried the state.
    """

    def __init__(
        self,
        name: str,
        layers: Sequence[int],
        weight_bytes: int,
        out_tensor_bytes: int,
        cost_s: float,
    ) -> None:
        super().__init__(name)
        if not layers:
            raise ValueError(f"partition {name!r} has no layers")
        self.layers: Tuple[int, ...] = tuple(int(l) for l in layers)
        self._weight_bytes = int(weight_bytes)
        self._out_bytes = int(out_tensor_bytes)
        self._cost = cost_s
        # The weight matrices are fixed constants of the layer indices;
        # draw them once, not per processed frame.
        self._mats = [layer_weights(l) for l in self.layers]
        # The multi-MB weight state is materialized lazily: fault-free
        # runs under the no-FT scheme never snapshot, so they never pay
        # the allocation.
        self._weights: Optional[np.ndarray] = None
        self.frames_inferred = 0
        self.activation_mean = 0.0

    @property
    def weights(self) -> np.ndarray:
        """The checkpointable weight tensor (frozen, built on first use)."""
        if self._weights is None:
            self._weights = weight_blob(self.layers, self._weight_bytes)
        return self._weights

    def process(self, tup: StreamTuple, ctx: OperatorContext) -> List[StreamTuple]:
        data = tup.payload
        if "features" in data:
            feat = np.asarray(data["features"], dtype=np.float64)
        else:
            feat = pooled_features(data["frame"])
        for mat in self._mats:
            feat = feat + np.tanh(mat @ feat)
        self.frames_inferred += 1
        self.activation_mean += (
            float(feat.sum()) / feat.size - self.activation_mean
        ) / self.frames_inferred
        out = {"features": feat, "true_class": data["true_class"]}
        return [tup.derive(out, self._out_bytes)]

    def cost(self, tup: StreamTuple) -> float:
        return self._cost

    def state_size(self) -> int:
        return self._weight_bytes

    def snapshot(self) -> Any:
        self.weights  # materialize before sharing
        return {
            "weights": snapshots.snap_attr(self, "_weights"),
            "frames_inferred": self.frames_inferred,
            "activation_mean": self.activation_mean,
        }

    def restore(self, state: Any) -> None:
        if not state:
            self.frames_inferred = 0
            self.activation_mean = 0.0
            return
        w = state.get("weights")
        if w is not None:
            self._weights = snapshots.adopt_array(w, dtype=np.float64)
        self.frames_inferred = int(state["frames_inferred"])
        self.activation_mean = float(state["activation_mean"])


class PrototypeClassifier(Operator):
    """P: online nearest-prototype classification head.

    Maintains a running mean feature vector per class (updated from the
    ground-truth label after predicting, like the SVM predictor's
    online training) and predicts the nearest prototype.  The upstream
    region's consensus (arriving via S0) acts as a prior: it answers
    cold-start frames before any local training and breaks near-ties
    between prototypes.  The prototypes are the head's checkpointable
    state; accuracy counters ride along so a run's classification
    quality is measurable.
    """

    def __init__(self, name: str, n_classes: int, cost_s: float,
                 state_size: int = 64 * 1024) -> None:
        super().__init__(name)
        if n_classes < 2:
            raise ValueError("need at least two classes")
        self.n_classes = n_classes
        self._cost = cost_s
        self._state_size = int(state_size)
        self.prototypes = np.zeros((n_classes, FEATURE_DIM))
        self.counts = np.zeros(n_classes, dtype=np.int64)
        self.predictions = 0
        self.correct = 0
        #: Votes received from the previous region's consensus (S0).
        self.upstream_votes = np.zeros(n_classes, dtype=np.int64)

    def process(self, tup: StreamTuple, ctx: OperatorContext) -> List[StreamTuple]:
        data = tup.payload
        if "features" not in data:
            # An upstream region's consensus: refresh the prior, emit
            # nothing (the local camera drives this region's output rate).
            cls = int(data.get("class", 0)) % self.n_classes
            self.upstream_votes = snapshots.writable(self.upstream_votes)
            self.upstream_votes[cls] += 1
            return []
        feat = np.asarray(data["features"], dtype=np.float64)
        true_class = int(data["true_class"]) % self.n_classes
        trained = self.counts > 0
        if trained.any():
            dists = np.linalg.norm(self.prototypes - feat, axis=1)
            dists[~trained] = np.inf
            best = float(dists.min())
            near = np.flatnonzero(dists <= best * 1.05)
            if len(near) > 1 and self.upstream_votes.any():
                # Near-tie: the upstream region's consensus breaks it.
                predicted = int(near[np.argmax(self.upstream_votes[near])])
            else:
                predicted = int(np.argmin(dists))
        elif self.upstream_votes.any():
            # Cold start with an upstream prior: follow the consensus.
            predicted = int(np.argmax(self.upstream_votes))
        else:
            predicted = 0
        self.predictions += 1
        if predicted == true_class:
            self.correct += 1
        # Online supervised update from the labelled frame (un-share
        # first: a checkpoint may hold these arrays).
        self.counts = snapshots.writable(self.counts)
        self.prototypes = snapshots.writable(self.prototypes)
        self.counts[true_class] += 1
        self.prototypes[true_class] += (
            feat - self.prototypes[true_class]
        ) / self.counts[true_class]
        out = {
            "class": predicted,
            "true_class": true_class,
            "correct": predicted == true_class,
        }
        return [tup.derive(out, 1024)]

    def cost(self, tup: StreamTuple) -> float:
        return self._cost

    def state_size(self) -> int:
        return self._state_size

    @property
    def accuracy(self) -> float:
        """Running top-1 accuracy over everything classified so far."""
        return self.correct / self.predictions if self.predictions else 0.0

    def snapshot(self) -> Any:
        return {
            "prototypes": snapshots.snap_attr(self, "prototypes"),
            "counts": snapshots.snap_attr(self, "counts"),
            "predictions": self.predictions,
            "correct": self.correct,
            "upstream_votes": snapshots.snap_attr(self, "upstream_votes"),
        }

    def restore(self, state: Any) -> None:
        if not state:
            self.prototypes = np.zeros((self.n_classes, FEATURE_DIM))
            self.counts = np.zeros(self.n_classes, dtype=np.int64)
            self.predictions = self.correct = 0
            self.upstream_votes = np.zeros(self.n_classes, dtype=np.int64)
            return
        self.prototypes = snapshots.adopt_array(state["prototypes"], dtype=np.float64)
        self.counts = snapshots.adopt_array(state["counts"], dtype=np.int64)
        self.predictions = int(state["predictions"])
        self.correct = int(state["correct"])
        self.upstream_votes = snapshots.adopt_array(
            state["upstream_votes"], dtype=np.int64
        )


class InferenceSink(SinkOperator):
    """K: publishes predictions and forwards them to the next region."""

    def __init__(self, name: str = "K") -> None:
        super().__init__(name)
