"""Tests for the synthetic vision substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import vision
from repro.apps.vision import (
    FrameSpec,
    box_sum,
    circularity,
    detect_blobs,
    integral_image,
    render_color,
    render_gray,
    sliding_box_sums,
)


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
            flat = vision.flatten_channels(img)
            assert np.array_equal(flat, img.max(axis=-1))
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
