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
from typing import List, Optional, Tuple

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


def render_gray(spec: FrameSpec) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Render a grayscale frame plus the ground-truth target centres.

    Targets are bright square blobs on a noisy background — a stand-in
    for HaarTraining's bright-cheek/dark-eye structure that box features
    can separate from noise.
    """
    rng = spec.rng()
    img = rng.random((spec.height, spec.width)) * BACKGROUND_NOISE
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
    return np.clip(img, 0.0, 1.0), centers


#: RGB channel a signal hue lights up (yellow = red + green).
_HUE_CHANNEL = {"red": 0, "yellow": None, "green": 1}


def render_color(spec: FrameSpec, hue: str) -> np.ndarray:
    """Render an RGB frame with ``spec.n_targets`` blobs of a given hue.

    Hues: ``red``/``yellow``/``green`` (traffic-signal heads).
    """
    channel = _HUE_CHANNEL[hue]
    gray, _centers = render_gray_cached(spec)
    img = np.stack([gray * 0.3] * 3, axis=-1)
    mask = gray > 0.5
    if channel is None:  # yellow = red + green
        img[mask, 0] = gray[mask]
        img[mask, 1] = gray[mask]
    else:
        img[mask, channel] = gray[mask]
    return img


# -- integral-image primitives ---------------------------------------------------
def integral_image(img: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero border row/column.

    ``ii[y, x]`` is the sum of ``img[:y, :x]``; any axis-aligned box sum
    is then four lookups — the trick that makes Haar cascades fast.
    """
    ii = np.zeros((img.shape[0] + 1, img.shape[1] + 1), dtype=np.float64)
    np.cumsum(np.cumsum(img, axis=0), axis=1, out=ii[1:, 1:])
    return ii


def box_sum(ii: np.ndarray, y0, x0, y1, x1):
    """Sum of ``img[y0:y1, x0:x1]`` from an integral image (vectorizable).

    Accepts scalars or equal-shaped index arrays.
    """
    return ii[y1, x1] - ii[y0, x1] - ii[y1, x0] + ii[y0, x0]


def sliding_box_sums(ii: np.ndarray, win: int, stride: int = 2) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All ``win``x``win`` window sums on a stride grid (fully vectorized).

    Returns ``(sums, ys, xs)`` where ``sums[i, j]`` is the window at
    ``(ys[i], xs[j])``.
    """
    h, w = ii.shape[0] - 1, ii.shape[1] - 1
    ys = np.arange(0, h - win + 1, stride)
    xs = np.arange(0, w - win + 1, stride)
    # :func:`box_sum` on the stride grid, as four strided views of ``ii``
    # (window origins ``top``/``left``, the opposite corners ``far``)
    # instead of four fancy-index gathers; same terms, same order.
    top = slice(0, max(0, h - win + 1), stride)
    left = slice(0, max(0, w - win + 1), stride)
    far = slice(win, None, stride)
    sums = ii[far, far] - ii[top, far] - ii[far, left] + ii[top, left]
    return sums, ys, xs


# -- detection helpers -----------------------------------------------------------
def detect_blobs(
    img: np.ndarray,
    win: int = 2 * TARGET_HALF + 1,
    stride: int = 2,
    threshold: float = 0.55,
) -> List[Tuple[int, int]]:
    """Greedy bright-blob detector over integral-image window means.

    A window fires when its mean intensity clears ``threshold``;
    overlapping detections are suppressed greedily (strongest first).
    Used by BCP's counters and tested against planted ground truth.
    """
    ii = integral_image(img)
    sums, ys, xs = sliding_box_sums(ii, win, stride)
    means = sums / (win * win)
    candidates = np.argwhere(means > threshold)
    if candidates.size == 0:
        return []
    strengths = means[candidates[:, 0], candidates[:, 1]]
    order = np.argsort(strengths)[::-1]
    picked: List[Tuple[int, int]] = []
    for idx in order:
        cy = int(ys[candidates[idx, 0]]) + win // 2
        cx = int(xs[candidates[idx, 1]]) + win // 2
        # Suppress within a full window radius: two windows overlapping the
        # same blob must not yield two detections.
        if all(abs(cy - y) >= win or abs(cx - x) >= win for y, x in picked):
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
# SignalGuru color->shape double render, and post-recovery replays all
# re-request the same frames, which made redundant rendering one of the
# largest CPU sinks of a full sweep.
#
# Rendered gray images are large (~150 KB), so that cache stays small; the
# derived-result caches are tiny tuples and can be generous.  There is no
# colour cache: the colour detectors read two numbers off the gray frame
# (see :func:`_flat_color`) and never render RGB.

_IMAGE_CACHE_SIZE = 32
_RESULT_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=_IMAGE_CACHE_SIZE)
def render_gray_cached(spec: FrameSpec) -> Tuple[np.ndarray, Tuple[Tuple[int, int], ...]]:
    """Memoized :func:`render_gray`; the image is returned read-only."""
    img, centers = render_gray(spec)
    img.setflags(write=False)
    return img, tuple(centers)


def flatten_channels(img: np.ndarray) -> np.ndarray:
    """Per-pixel max over the color channels, same values as
    ``img.max(axis=-1)``.

    A reduction over the short contiguous channel axis is pathologically
    slow in numpy (~25x slower than three elementwise maximums on our
    frame sizes); the chained form is bit-identical because ``maximum``
    is exact.
    """
    flat = np.maximum(img[..., 0], img[..., 1])
    for c in range(2, img.shape[-1]):
        flat = np.maximum(flat, img[..., c], out=flat)
    return flat


@lru_cache(maxsize=_RESULT_CACHE_SIZE)
def count_blobs(spec: FrameSpec) -> int:
    """Number of detected blobs in the frame's grayscale rendering.

    Equivalent to ``len(detect_blobs(render_gray(spec)[0]))``; this is
    BCP's face-count path, shared across replicas and replays.
    """
    img, _centers = render_gray_cached(spec)
    return len(detect_blobs(img))


# The two colour detectors below never render RGB.  :func:`render_color`
# dims every channel to ``gray * 0.3`` and restores full ``gray`` on the
# hue's channel(s) where ``gray > 0.5``, so a channel the hue lights is
# ``where(gray > 0.5, gray, gray * 0.3)`` — which is also the per-pixel
# channel maximum, for all three hues — and any other channel is
# ``gray * 0.3``.  The tests hold both against the rendered reference.


@lru_cache(maxsize=_RESULT_CACHE_SIZE)
def channel_maxima(spec: FrameSpec, hue: str) -> Tuple[float, float]:
    """``(red_max, green_max)`` of the frame's color rendering."""
    channel = _HUE_CHANNEL[hue]
    peak = float(render_gray_cached(spec)[0].max())
    dim = peak * 0.3  # scaling by a positive constant commutes with max
    lit = peak if peak > 0.5 else dim
    return (dim if channel == 1 else lit), (dim if channel == 0 else lit)


@lru_cache(maxsize=_RESULT_CACHE_SIZE)
def brightest_blob(
    spec: FrameSpec, hue: str, half: int = 6
) -> Optional[Tuple[int, int, float]]:
    """Strongest blob of the flattened color frame plus its circularity.

    Returns ``(cy, cx, circularity)`` or None when no blob clears the
    detector threshold — exactly the values SignalGuru's shape filter
    used to recompute per replica from a fresh render.
    """
    if hue not in _HUE_CHANNEL:
        raise KeyError(hue)
    gray, _centers = render_gray_cached(spec)
    img = np.where(gray > 0.5, gray, gray * 0.3)
    blobs = detect_blobs(img)
    if not blobs:
        return None
    cy, cx = blobs[0]
    patch = img[max(0, cy - half):cy + half, max(0, cx - half):cx + half]
    return cy, cx, circularity(patch)


def clear_vision_caches() -> None:
    """Drop all memoized rendering/detection results (tests, memory)."""
    render_gray_cached.cache_clear()
    count_blobs.cache_clear()
    channel_maxima.cache_clear()
    brightest_blob.cache_clear()
