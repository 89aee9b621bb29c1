"""Tests for the synthetic vision substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import vision
from repro.apps.vision import (
    BACKGROUND_NOISE,
    TARGET_HALF,
    TARGET_INTENSITY,
    FrameSpec,
    circularity,
    detect_blobs,
    integral_image,
    render_gray,
    sliding_box_sums,
)

#: The frame sizes the property tests draw from.
SIZES = [(160, 120), (80, 60), (64, 48), (40, 32)]


# -- reference oracles -----------------------------------------------------------
# Straightforward forms of what ``repro.apps.vision`` computes another way; the
# fast paths must equal them bit for bit.
def box_sum(ii, y0, x0, y1, x1):
    """Sum of ``img[y0:y1, x0:x1]`` from an integral image (vectorizable)."""
    return ii[y1, x1] - ii[y0, x1] - ii[y1, x0] + ii[y0, x0]


def render_color(spec, hue):
    """RGB frame with ``spec.n_targets`` blobs of a signal hue."""
    channel = {"red": 0, "yellow": None, "green": 1}[hue]
    gray, _centers = render_gray(spec)
    img = np.stack([gray * 0.3] * 3, axis=-1)
    mask = gray > 0.5
    if channel is None:  # yellow = red + green
        img[mask, 0] = gray[mask]
        img[mask, 1] = gray[mask]
    else:
        img[mask, channel] = gray[mask]
    return img


def render_gray_clipped(spec):
    """The render with a scaled copy and ``np.clip``, no in-place step."""
    rng = spec.rng()
    img = rng.random((spec.height, spec.width)) * BACKGROUND_NOISE
    centers = []
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


def detect_blobs_generator(img, win=2 * TARGET_HALF + 1, stride=2, threshold=0.55):
    """The detector as one loop over ``argwhere`` candidates, suppressing
    with an ``all(...)`` generator."""
    ii = integral_image(img)
    sums, ys, xs = sliding_box_sums(ii, win, stride)
    means = sums / (win * win)
    candidates = np.argwhere(means > threshold)
    if candidates.size == 0:
        return []
    strengths = means[candidates[:, 0], candidates[:, 1]]
    order = np.argsort(strengths)[::-1]
    picked = []
    for idx in order:
        cy = int(ys[candidates[idx, 0]]) + win // 2
        cx = int(xs[candidates[idx, 1]]) + win // 2
        if all(abs(cy - y) >= win or abs(cx - x) >= win for y, x in picked):
            picked.append((cy, cx))
    return picked


def test_frame_rendering_deterministic():
    spec = FrameSpec(seed=5, n_targets=2)
    img1, c1 = render_gray(spec)
    img2, c2 = render_gray(spec)
    assert np.array_equal(img1, img2)
    assert c1 == c2


def test_frame_shape_and_range():
    spec = FrameSpec(seed=1, width=80, height=60, n_targets=1)
    img, centers = render_gray(spec)
    assert img.shape == (60, 80)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert len(centers) == 1


def test_integral_image_matches_naive():
    rng = np.random.default_rng(0)
    img = rng.random((17, 23))
    ii = integral_image(img)
    assert ii.shape == (18, 24)
    assert box_sum(ii, 0, 0, 17, 23) == pytest.approx(img.sum())
    assert box_sum(ii, 3, 5, 9, 11) == pytest.approx(img[3:9, 5:11].sum())


def test_box_sum_vectorized_indices():
    rng = np.random.default_rng(1)
    img = rng.random((30, 30))
    ii = integral_image(img)
    y0 = np.array([[0], [5]])
    x0 = np.array([[0, 10]])
    sums = box_sum(ii, y0, x0, y0 + 5, x0 + 5)
    assert sums.shape == (2, 2)
    assert sums[1, 1] == pytest.approx(img[5:10, 10:15].sum())


def test_sliding_box_sums_grid():
    img = np.ones((20, 24))
    sums, ys, xs = sliding_box_sums(integral_image(img), win=4, stride=2)
    assert sums.shape == (len(ys), len(xs))
    assert np.allclose(sums, 16.0)


@pytest.mark.parametrize("n_targets", [0, 1, 3, 6])
def test_detect_blobs_counts_planted_targets(n_targets):
    hits = 0
    trials = 10
    for seed in range(trials):
        spec = FrameSpec(seed=seed * 11 + 1, n_targets=n_targets)
        img, _truth = render_gray(spec)
        if len(detect_blobs(img)) == n_targets:
            hits += 1
    assert hits >= trials * 0.7  # the detector is good, not perfect


def test_detect_blobs_positions_near_truth():
    spec = FrameSpec(seed=9, n_targets=3)
    img, truth = render_gray(spec)
    found = detect_blobs(img)
    for ty, tx in truth:
        assert any(abs(ty - y) + abs(tx - x) < 12 for y, x in found)


def test_color_rendering_channels():
    spec = FrameSpec(seed=4, n_targets=1)
    red = render_color(spec, "red")
    green = render_color(spec, "green")
    yellow = render_color(spec, "yellow")
    assert red[..., 0].max() > red[..., 1].max()
    assert green[..., 1].max() > green[..., 0].max()
    assert yellow[..., 0].max() > 0.8 and yellow[..., 1].max() > 0.8


def test_circularity_of_disc_vs_stripe():
    yy, xx = np.mgrid[0:21, 0:21]
    disc = (((yy - 10) ** 2 + (xx - 10) ** 2) <= 100).astype(float)
    stripe = np.zeros((21, 21))
    stripe[9:12, :] = 1.0
    assert circularity(disc) > 0.8
    assert circularity(stripe) < 0.5
    assert circularity(np.zeros((0, 0))) == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 5))
def test_render_never_out_of_bounds(seed, n):
    spec = FrameSpec(seed=seed, n_targets=n)
    img, centers = render_gray(spec)
    assert img.shape == (spec.height, spec.width)
    for cy, cx in centers:
        assert 0 <= cy < spec.height
        assert 0 <= cx < spec.width


# -- fast paths vs the rendered reference --------------------------------------
def _seeded_specs(count):
    """``count`` FrameSpecs over several frame sizes, every fourth one empty."""
    rng = np.random.default_rng(20260928)
    sizes = [(160, 120), (80, 60), (64, 48)]
    for i in range(count):
        width, height = sizes[i % len(sizes)]
        yield FrameSpec(
            seed=int(rng.integers(0, 2**31)), width=width, height=height,
            n_targets=0 if i % 4 == 0 else int(rng.integers(1, 5)),
        )


def test_color_fast_paths_equal_rendered_reference():
    """channel_maxima / brightest_blob read the gray frame only; the RGB
    render stays as the reference they must equal bit for bit."""
    vision.clear_vision_caches()
    for spec in _seeded_specs(300):
        for hue in ("red", "yellow", "green"):
            img = render_color(spec, hue)
            assert vision.channel_maxima(spec, hue) == (
                float(img[..., 0].max()), float(img[..., 1].max()))
            flat = img.max(axis=-1)
            blobs = detect_blobs(flat)
            expected = None
            if blobs:
                cy, cx = blobs[0]
                patch = flat[max(0, cy - 6):cy + 6, max(0, cx - 6):cx + 6]
                expected = (cy, cx, circularity(patch))
            assert vision.brightest_blob(spec, hue) == expected
    vision.clear_vision_caches()


@pytest.mark.parametrize("fn", [vision.channel_maxima, vision.brightest_blob])
def test_color_fast_paths_reject_unknown_hue(fn):
    with pytest.raises(KeyError):
        fn(FrameSpec(seed=1), "blue")


@pytest.mark.parametrize("shape,win,stride", [
    ((120, 160), 11, 2), ((17, 23), 5, 1), ((17, 23), 5, 3), ((12, 9), 4, 2),
    ((6, 30), 6, 2), ((5, 30), 6, 2),  # window as tall as / taller than the image
])
def test_sliding_box_sums_equal_box_sum_gather(shape, win, stride):
    ii = integral_image(np.random.default_rng(3).random(shape))
    sums, ys, xs = sliding_box_sums(ii, win, stride)
    y0, x0 = ys[:, None], xs[None, :]
    assert np.array_equal(sums, box_sum(ii, y0, x0, y0 + win, x0 + win))


# -- the memoized EdgeML embedding ---------------------------------------------
def _fresh_embedding(spec):
    img, _centers = render_gray(spec)
    h, w = img.shape
    gh, gw = h // 4, w // 4
    pooled = img[: gh * 4, : gw * 4].reshape(4, gh, 4, gw).mean(axis=(1, 3))
    return pooled.reshape(-1).astype(np.float64)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    size=st.sampled_from([(160, 120), (80, 60), (64, 48), (40, 32)]),
    n_targets=st.integers(0, 4),
)
def test_pooled_features_equal_fresh_render(seed, size, n_targets):
    spec = FrameSpec(seed=seed, width=size[0], height=size[1], n_targets=n_targets)
    feat = vision.pooled_features(spec)
    expected = _fresh_embedding(spec)
    assert feat.dtype == np.float64 and feat.shape == (16,)
    assert feat.tobytes() == expected.tobytes()
    assert vision.pooled_features(spec) is feat


def test_pooled_features_are_read_only():
    feat = vision.pooled_features(FrameSpec(seed=11, n_targets=2))
    with pytest.raises(ValueError):
        feat[0] = 1.0
    with pytest.raises(ValueError):
        feat += 1.0


def test_clear_vision_caches_empties_the_embedding_cache():
    vision.pooled_features(FrameSpec(seed=12, n_targets=1))
    assert vision.pooled_features.cache_info().currsize > 0
    vision.clear_vision_caches()
    assert vision.pooled_features.cache_info().currsize == 0


# -- the rewritten primitives against their straightforward forms --------------
_frames = dict(
    seed=st.integers(0, 2**31 - 1),
    size=st.sampled_from(SIZES),
    n_targets=st.integers(0, 12),
)


def _spec(seed, size, n_targets):
    return FrameSpec(seed=seed, width=size[0], height=size[1], n_targets=n_targets)


@settings(max_examples=80, deadline=None)
@given(**_frames)
def test_render_gray_equals_clipped_render(seed, size, n_targets):
    spec = _spec(seed, size, n_targets)
    img, centers = render_gray(spec)
    expected, expected_centers = render_gray_clipped(spec)
    assert img.dtype == expected.dtype and img.shape == expected.shape
    assert img.tobytes() == expected.tobytes()
    assert centers == expected_centers
    out = np.full(img.shape, np.nan)
    assert render_gray(spec, out)[0] is out
    assert out.tobytes() == expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(**_frames)
def test_integral_image_equals_nested_cumsum(seed, size, n_targets):
    img, _centers = render_gray(_spec(seed, size, n_targets))
    expected = np.zeros((img.shape[0] + 1, img.shape[1] + 1))
    expected[1:, 1:] = np.cumsum(np.cumsum(img, axis=0), axis=1)
    assert integral_image(img).tobytes() == expected.tobytes()
    out = np.zeros_like(expected)
    out[1:, 1:] = np.nan  # a reused buffer: only its border is zero
    assert integral_image(img, out) is out
    assert out.tobytes() == expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(**_frames, flatten=st.booleans())
def test_detect_blobs_equals_generator_form(seed, size, n_targets, flatten):
    img, _centers = render_gray(_spec(seed, size, n_targets))
    if flatten:
        img = np.where(img > 0.5, img, img * 0.3)
    assert detect_blobs(img) == detect_blobs_generator(img)


@pytest.mark.parametrize("win,stride,threshold", [(5, 1, 0.5), (3, 2, 0.3), (11, 3, 0.55)])
def test_detect_blobs_equals_generator_form_on_ties(win, stride, threshold):
    """Quantised pixels make many equal window means: ties break alike."""
    for seed in range(40):
        img = np.round(np.random.default_rng(seed).random((40, 50)) * 4) / 4
        assert detect_blobs(img, win, stride, threshold) == \
            detect_blobs_generator(img, win, stride, threshold)


@settings(max_examples=80, deadline=None)
@given(**_frames, hue=st.sampled_from(["red", "yellow", "green"]))
def test_brightest_blob_is_first_detection(seed, size, n_targets, hue):
    spec = _spec(seed, size, n_targets)
    gray, _centers = render_gray(spec)
    img = np.where(gray > 0.5, gray, gray * 0.3)
    blobs = detect_blobs(img)
    expected = None
    if blobs:
        cy, cx = blobs[0]
        expected = (cy, cx, circularity(img[max(0, cy - 6):cy + 6, max(0, cx - 6):cx + 6]))
    assert vision.brightest_blob(spec, hue) == expected


# -- the memo layer ----------------------------------------------------------------
def test_clear_vision_caches_empties_every_memo():
    """Every ``lru_cache`` in the module, listed or not, is cleared: one
    left out would turn cold-cache tests warm and skew the e2e
    ``apps.render_*`` counters, which sum them all."""
    for spec in _seeded_specs(6):
        vision.count_blobs(spec)
        vision.channel_maxima(spec, "red")
        vision.brightest_blob(spec, "green")
        vision.pooled_features(spec)
    memos = {name: fn for name, fn in vars(vision).items() if hasattr(fn, "cache_info")}
    assert memos, "repro.apps.vision memoizes nothing"
    assert all(fn.cache_info().currsize > 0 for fn in memos.values()), {
        name: fn.cache_info() for name, fn in memos.items()}
    vision.clear_vision_caches()
    assert {name: fn.cache_info().currsize for name, fn in memos.items()} == dict.fromkeys(memos, 0)

