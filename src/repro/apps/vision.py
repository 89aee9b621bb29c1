"""Synthetic vision substrate: scenes, frames, and detection primitives.

The paper's cameras (bus-stop ceilings, windshield mounts) are replaced
by a generator of synthetic frames; the detectors then run *real* image
processing on those frames — integral images, Haar-like box features,
sliding windows, color thresholding, template correlation — so the
compute path an operator executes is genuine, while the *simulated* CPU
cost of each invocation is a calibrated function of frame size (the
Python/numpy wall time of a 2020s laptop says nothing about a 600 MHz
Cortex-A8).

Frames travel through the DSPS as :class:`FrameSpec` descriptors (seed +
scene parameters); an operator *renders* the frame on demand.  This keeps
simulated network payload sizes faithful (hundreds of KB) without
shipping megabytes of ndarray between simulation objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class FrameSpec:
    """A renderable synthetic frame.

    ``seed`` fully determines the pixels, so every replica/replay renders
    the identical frame.  ``n_targets`` is ground truth (faces in BCP,
    lit signal heads in SignalGuru) used to evaluate detector accuracy.
    """

    seed: int
    width: int = 160
    height: int = 120
    n_targets: int = 0
    #: Simulated encoded size on the wire, bytes.
    encoded_size: int = 200 * 1024

    def rng(self) -> np.random.Generator:
        """The frame's deterministic pixel RNG."""
        return np.random.default_rng(self.seed)


# -- rendering ---------------------------------------------------------------
#: Intensity of a rendered target blob vs. background noise.
TARGET_INTENSITY = 0.9
BACKGROUND_NOISE = 0.15
#: Rendered target half-size in pixels.
TARGET_HALF = 5


def render_gray(
    spec: FrameSpec, out: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Render a grayscale frame plus the ground-truth target centres.

    Targets are bright square blobs on a noisy background — a stand-in
    for HaarTraining's bright-cheek/dark-eye structure that box features
    can separate from noise.  The frame is drawn into ``out`` (a C-ordered
    ``(height, width)`` float64 array) when given, else into a new array.
    """
    rng = spec.rng()
    img = rng.random((spec.height, spec.width), out=out)
    img *= BACKGROUND_NOISE
    centers: List[Tuple[int, int]] = []
    margin = 3 * TARGET_HALF
    for _ in range(spec.n_targets):
        for _attempt in range(50):
            cy = int(rng.integers(margin, spec.height - margin))
            cx = int(rng.integers(margin, spec.width - margin))
            if all(abs(cy - y) + abs(cx - x) > 4 * TARGET_HALF for y, x in centers):
                break
        centers.append((cy, cx))
        img[cy - TARGET_HALF:cy + TARGET_HALF + 1,
            cx - TARGET_HALF:cx + TARGET_HALF + 1] += TARGET_INTENSITY
    # Every pixel is >= 0, so capping at 1 in place is ``np.clip(img, 0, 1)``.
    np.minimum(img, 1.0, out=img)
    return img, centers


#: Signal hues and the RGB channel each lights (yellow = red + green).
_HUE_CHANNEL = {"red": 0, "yellow": None, "green": 1}


# -- integral-image primitives ---------------------------------------------------
def integral_image(img: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Summed-area table with a zero border row/column.

    ``ii[y, x]`` is the sum of ``img[:y, :x]``; any axis-aligned box sum
    is then four lookups — the trick that makes Haar cascades fast.
    ``out``, when given, is a zero-bordered array one row and column
    larger than ``img``; only its interior is written.
    """
    ii = np.zeros((img.shape[0] + 1, img.shape[1] + 1)) if out is None else out
    body = ii[1:, 1:]
    # Rows then columns, both straight into ``ii``: the additions of
    # ``cumsum(cumsum(img, 0), 1)`` in their order, with no intermediate.
    np.cumsum(img, axis=0, out=body)
    np.cumsum(body, axis=1, out=body)
    return ii


def sliding_box_sums(ii: np.ndarray, win: int, stride: int = 2) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All ``win``x``win`` window sums on a stride grid (fully vectorized).

    Returns ``(sums, ys, xs)`` where ``sums[i, j]`` is the window at
    ``(ys[i], xs[j])``.
    """
    h, w = ii.shape[0] - 1, ii.shape[1] - 1
    ys = np.arange(0, h - win + 1, stride)
    xs = np.arange(0, w - win + 1, stride)
    # The box sum ``ii[y1, x1] - ii[y0, x1] - ii[y1, x0] + ii[y0, x0]`` of
    # every window on the stride grid, as four strided views of ``ii``
    # (window origins ``top``/``left``, the opposite corners ``far``).
    top = slice(0, max(0, h - win + 1), stride)
    left = slice(0, max(0, w - win + 1), stride)
    far = slice(win, None, stride)
    sums = ii[far, far] - ii[top, far] - ii[far, left] + ii[top, left]
    return sums, ys, xs


# -- detection helpers -----------------------------------------------------------
#: Blob detector window (one rendered target wide) and mean-intensity cut.
BLOB_WIN = 2 * TARGET_HALF + 1
BLOB_THRESHOLD = 0.55


def _blob_candidates(
    ii: np.ndarray,
    win: int = BLOB_WIN,
    stride: int = 2,
    threshold: float = BLOB_THRESHOLD,
) -> Tuple[List[int], List[int]]:
    """Centres ``(cys, cxs)`` of the windows whose mean clears
    ``threshold``, strongest first, from the image's integral image.

    Equal strengths keep the order ``np.argsort(...)[::-1]`` gives them,
    which the suppression of :func:`detect_blobs` depends on.
    """
    sums, ys, xs = sliding_box_sums(ii, win, stride)
    sums /= win * win  # window means
    rows, cols = np.nonzero(sums > threshold)
    order = np.argsort(sums[rows, cols])[::-1]
    return (ys[rows[order]] + win // 2).tolist(), (xs[cols[order]] + win // 2).tolist()


def detect_blobs(
    img: np.ndarray,
    win: int = BLOB_WIN,
    stride: int = 2,
    threshold: float = BLOB_THRESHOLD,
    ii: Optional[np.ndarray] = None,
) -> List[Tuple[int, int]]:
    """Greedy bright-blob detector over integral-image window means.

    A window fires when its mean intensity clears ``threshold``;
    overlapping detections are suppressed greedily (strongest first).
    Used by BCP's counters and tested against planted ground truth.
    ``ii`` is the buffer :func:`integral_image` builds in, if given.
    """
    picked: List[Tuple[int, int]] = []
    for cy, cx in zip(*_blob_candidates(integral_image(img, ii), win, stride, threshold)):
        # Suppress within a full window radius: two windows overlapping the
        # same blob must not yield two detections.
        for y, x in picked:
            if abs(cy - y) < win and abs(cx - x) < win:
                break
        else:
            picked.append((cy, cx))
    return picked


def circularity(patch: np.ndarray) -> float:
    """How circular a bright patch is (1.0 = disc, lower = other shapes).

    Correlates the thresholded patch with a centered disc template —
    SignalGuru's shape filter ("circle or arrow").
    """
    if patch.size == 0:
        return 0.0
    h, w = patch.shape
    yy, xx = np.mgrid[0:h, 0:w]
    r = min(h, w) / 2.0
    disc = ((yy - (h - 1) / 2.0) ** 2 + (xx - (w - 1) / 2.0) ** 2) <= r * r
    # Midpoint threshold: robust when the patch is mostly target (a
    # mean+sigma cut declares a uniform bright patch all-background).
    bright = patch > (float(patch.min()) + float(patch.max())) / 2.0
    inter = np.logical_and(disc, bright).sum()
    union = np.logical_or(disc, bright).sum()
    return float(inter) / float(union) if union else 0.0


# -- memoized pure-function layer --------------------------------------------
# Rendering and detection are pure functions of the FrameSpec (each frame
# carries its own pixel seed; no shared RNG stream is consumed), so their
# results can be cached without perturbing determinism: a hit returns the
# bit-identical value a recompute would.  Replicated chains (rep-k), the
# SignalGuru color->shape double read, and post-recovery replays all
# re-request the same frames, which made redundant rendering one of the
# largest CPU sinks of a full sweep.
#
# All three app families read it: BCP counts blobs, SignalGuru reads the
# colour and shape of its brightest blob, and EdgeML's first partition
# embeds the frame as a pooled feature vector.
#
# Memo entries hold derived results, never an image: each memo renders its
# frame once and reads everything its readers need off it.  SignalGuru's
# two filters share one memo per frame for that reason.  The entries are
# small tuples (and EdgeML's 16-vectors), so the caches can be generous.
#
# A miss renders into one reused pair of buffers per frame shape (a frame
# and its integral image, ~0.3 MB at 160x120), so only the newest frame is
# ever held; no result aliases them.  New arrays of that size, freed after
# every frame, sit at the top of the C heap, which glibc (2.36) returns to
# the kernel and faults back in for the next frame: ~73 page faults a
# render.

_RESULT_CACHE_SIZE = 1 << 16
#: EdgeML embeddings.  An entry (16 float64s, the array header, the
#: FrameSpec key, the cache link) measures ~0.54 KB under tracemalloc
#: (CPython 3.11, numpy 2.4): ~1.6 MiB when full, under 4 MiB even at
#: 1.3 KB an entry, and room for a whole edgeml-split-sweep (459 frames).
_EMBEDDING_CACHE_SIZE = 3072
_SCRATCH: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}


def _scratch(spec: FrameSpec) -> Tuple[np.ndarray, np.ndarray]:
    """The reused ``(frame, integral image)`` buffers for ``spec``'s shape."""
    shape = (spec.height, spec.width)
    buffers = _SCRATCH.get(shape)
    if buffers is None:
        buffers = _SCRATCH[shape] = (np.empty(shape), np.zeros((shape[0] + 1, shape[1] + 1)))
    return buffers


@lru_cache(maxsize=_RESULT_CACHE_SIZE)
def count_blobs(spec: FrameSpec) -> int:
    """Number of detected blobs in the frame's grayscale rendering.

    Equivalent to ``len(detect_blobs(render_gray(spec)[0]))``; this is
    BCP's face-count path, shared across replicas and replays.
    """
    img, ii = _scratch(spec)
    render_gray(spec, out=img)
    return len(detect_blobs(img, ii=ii))


# SignalGuru's colour detectors never render RGB.  An RGB rendering of a
# hue dims every channel to ``gray * 0.3`` and restores full ``gray`` on
# the hue's channel(s) where ``gray > 0.5``, so a channel the hue lights is
# ``where(gray > 0.5, gray, gray * 0.3)`` — which is also the per-pixel
# channel maximum, for all three hues — and any other channel is
# ``gray * 0.3``.  The tests hold both against the rendered reference.


@lru_cache(maxsize=_RESULT_CACHE_SIZE)
def _signal_frame(spec: FrameSpec) -> Tuple[float, Optional[Tuple[int, int, float]]]:
    """``(peak, top)`` of one render: the gray maximum and the strongest
    blob ``(cy, cx, circularity)`` of the channel maximum, or None.

    The strongest blob is the first candidate, which suppression always
    keeps, so no suppression runs.
    """
    half = 6
    img, ii = _scratch(spec)
    render_gray(spec, out=img)
    peak = float(img.max())
    # In place, the channel maximum ``where(gray > 0.5, gray, gray * 0.3)``.
    np.multiply(img, 0.3, out=img, where=img <= 0.5)
    cys, cxs = _blob_candidates(integral_image(img, out=ii))
    if not cys:
        return peak, None
    cy, cx = cys[0], cxs[0]
    patch = img[max(0, cy - half):cy + half, max(0, cx - half):cx + half]
    return peak, (cy, cx, circularity(patch))


def channel_maxima(spec: FrameSpec, hue: str) -> Tuple[float, float]:
    """``(red_max, green_max)`` of the frame's color rendering."""
    channel = _HUE_CHANNEL[hue]
    peak = _signal_frame(spec)[0]
    dim = peak * 0.3  # scaling by a positive constant commutes with max
    lit = peak if peak > 0.5 else dim
    return (dim if channel == 1 else lit), (dim if channel == 0 else lit)


def brightest_blob(spec: FrameSpec, hue: str) -> Optional[Tuple[int, int, float]]:
    """Strongest blob of the flattened color frame plus its circularity.

    Returns ``(cy, cx, circularity)`` or None when no blob clears the
    detector threshold.  Every hue flattens to the same image, so the
    result depends on ``hue`` only through the ``KeyError`` an unknown
    hue raises.
    """
    if hue not in _HUE_CHANNEL:
        raise KeyError(hue)
    return _signal_frame(spec)[1]


@lru_cache(maxsize=_EMBEDDING_CACHE_SIZE)
def pooled_features(spec: FrameSpec) -> np.ndarray:
    """Render a frame and average-pool it into a 16-vector (read-only).

    A 4x4 grid of block means over the grayscale render — the input
    embedding EdgeML's first partition feeds the network.  Brighter
    blocks mean more targets, so the vector genuinely carries the class
    signal.
    """
    img, _centers = render_gray(spec, out=_scratch(spec)[0])
    h, w = img.shape
    gh, gw = h // 4, w // 4
    pooled = img[: gh * 4, : gw * 4].reshape(4, gh, 4, gw).mean(axis=(1, 3))
    feat = pooled.reshape(-1).astype(np.float64)
    feat.setflags(write=False)
    return feat


def clear_vision_caches() -> None:
    """Drop all memoized rendering/detection results (tests, memory)."""
    count_blobs.cache_clear()
    _signal_frame.cache_clear()
    pooled_features.cache_clear()
