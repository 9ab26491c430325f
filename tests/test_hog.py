"""Gradient-orientation histograms."""

import numpy as np
import pytest

from bearface import hog as hog_module
from bearface.hog import DEFAULT_HOG_BINS, gradient_field, hog
from bearface.imaging import GrayImage


def reference_gradient_field(pixels: np.ndarray):
    """The float ``np.gradient`` + ``np.hypot`` field `gradient_field` must reproduce."""
    gy, gx = np.gradient(np.asarray(pixels, dtype=np.float64))
    return np.hypot(gx, gy), np.mod(np.arctan2(gy, gx), np.pi)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


def reference_hog(image: GrayImage, grid=(8, 8), bins=DEFAULT_HOG_BINS) -> np.ndarray:
    """The per-window histogram loop the one-pass `hog` must reproduce."""
    grid_y, grid_x = grid
    height, width = image.pixels.shape
    win_h = height // grid_y
    win_w = width // grid_x
    gy, gx = np.gradient(np.asarray(image.pixels, dtype=np.float64))
    magnitude = np.hypot(gx, gy)
    orientation = np.mod(np.arctan2(gy, gx), np.pi)
    position = orientation * (bins / np.pi)
    lower = np.floor(position)
    fraction = position - lower
    bin_lo = lower.astype(np.int64) % bins
    bin_hi = (bin_lo + 1) % bins
    weight_lo = magnitude * (1.0 - fraction)
    weight_hi = magnitude * fraction
    feature = np.zeros(grid_y * grid_x * bins, dtype=np.float64)
    for wy in range(grid_y):
        for wx in range(grid_x):
            rows = slice(wy * win_h, (wy + 1) * win_h)
            cols = slice(wx * win_w, (wx + 1) * win_w)
            hist = np.bincount(
                bin_lo[rows, cols].ravel(),
                weights=weight_lo[rows, cols].ravel(),
                minlength=bins,
            )
            hist += np.bincount(
                bin_hi[rows, cols].ravel(),
                weights=weight_hi[rows, cols].ravel(),
                minlength=bins,
            )
            norm = np.linalg.norm(hist)
            if norm > 0:
                hist = hist / (norm + 1e-6)
            start = (wy * grid_x + wx) * bins
            feature[start : start + bins] = hist
    return feature


def _checkerboard(size: int = 128) -> np.ndarray:
    return (np.indices((size, size)).sum(axis=0) % 2 * 255).astype(np.uint8)


def _stripes(size: int = 128, period: int = 2) -> np.ndarray:
    pixels = np.zeros((size, size), dtype=np.uint8)
    pixels[:, : : period] = 255
    return pixels


# Seeded noise, a flat image, and 0/255 patterns whose gradients are
# maximal and whose orientations land exactly on 0, pi/2 and pi.
REFERENCE_IMAGES = {
    "random-a": np.random.default_rng(31).integers(0, 256, (128, 128), dtype=np.uint8),
    "random-b": np.random.default_rng(32).integers(0, 256, (128, 128), dtype=np.uint8),
    "constant": np.full((128, 128), 77, dtype=np.uint8),
    "checkerboard": _checkerboard(),
    "inverted-checkerboard": 255 - _checkerboard(),
    "columns": _stripes(),
    "rows": _stripes().T.copy(),
    "wide-rows": 255 - _stripes(period=3).T,
}


@pytest.mark.parametrize("name", sorted(REFERENCE_IMAGES))
@pytest.mark.parametrize("bins", [1, 9, 59, 180])
@pytest.mark.parametrize("grid", [(8, 8), (4, 4), (2, 8)])
def test_matches_per_window_reference(name, bins, grid):
    image = GrayImage(REFERENCE_IMAGES[name])
    assert np.array_equal(hog(image, grid, bins), reference_hog(image, grid, bins))


@pytest.mark.parametrize("bins", [1, 9, 59, 180])
@pytest.mark.parametrize("grid", [(8, 8), (4, 4), (2, 8)])
def test_batched_window_norms_match_per_row_dot(bins, grid):
    # `hog` squares its window rows in one batched product; each must be
    # the row's own dot, which is what np.linalg.norm takes.
    rng = np.random.default_rng(bins * 100 + grid[0] * 10 + grid[1])
    windows = grid[0] * grid[1]
    for hist in (
        rng.random((windows, bins)) * 300.0,
        rng.integers(0, 40, (windows, bins)).astype(np.float64),
        np.zeros((windows, bins)),
    ):
        batched = (hist[:, None, :] @ hist[:, :, None]).ravel()
        assert _same_bits(batched, np.array([row.dot(row) for row in hist]))
        assert _same_bits(np.sqrt(batched), np.array([np.linalg.norm(row) for row in hist]))


def test_orientation_fold_matches_mod_on_all_8bit_gradients():
    # Doubled central differences of 8-bit pixels lie in [-510, 510]
    # (interior ones in [-255, 255]): every pair is on this lattice.
    doubled = np.arange(-510, 511, dtype=np.int32)
    dy, dx = np.meshgrid(doubled, doubled, indexing="ij")
    assert dy.size == 1_042_441
    expected = np.mod(np.arctan2(dy / 2.0, dx / 2.0), np.pi)
    assert _same_bits(hog_module._orientation(dy, dx), expected)


@pytest.mark.parametrize(
    "shape", [(2, 2), (2, 9), (11, 2), (3, 3), (17, 31), (128, 128), (64, 200)]
)
def test_gradient_field_matches_float_reference(shape):
    rng = np.random.default_rng(sum(shape))
    for pixels in (
        rng.integers(0, 256, shape, dtype=np.uint8),
        (np.indices(shape).sum(axis=0) % 2 * 255).astype(np.uint8),
        np.full(shape, 255, dtype=np.uint8),
    ):
        magnitude, orientation = gradient_field(pixels)
        expected_magnitude, expected_orientation = reference_gradient_field(pixels)
        assert _same_bits(magnitude, expected_magnitude)
        assert _same_bits(orientation, expected_orientation)
        # Wider integer types with 8-bit values give the same field.
        wide_magnitude, wide_orientation = gradient_field(pixels.astype(np.int64))
        assert _same_bits(wide_magnitude, magnitude)
        assert _same_bits(wide_orientation, orientation)


def test_magnitude_table_matches_hypot_on_the_signed_lattice():
    # Every (doubled) gradient pair of an 8-bit image: 1021^2 of them.
    doubled = np.arange(-510, 511)
    dy, dx = np.meshgrid(doubled, doubled, indexing="ij")
    assert dx.size == 1021**2
    table = hog_module._magnitude_table()
    looked_up = table.take(np.abs(dx) * 511 + np.abs(dy))
    assert _same_bits(looked_up, np.hypot(dx / 2.0, dy / 2.0))


@pytest.mark.parametrize(
    "pixels",
    [np.zeros((4, 4)), np.full((4, 4), 256), np.full((4, 4), -1), np.zeros((4, 4), dtype=bool),
     np.zeros((1, 5), dtype=np.uint8), np.zeros((5, 1), dtype=np.uint8),
     np.zeros((3, 3, 3), dtype=np.uint8), np.zeros(5, dtype=np.uint8)],
    ids=["float", "above-255", "negative", "bool", "one-row", "one-column", "3-d", "1-d"],
)
def test_gradient_field_rejects_non_8bit_input(pixels):
    with pytest.raises(ValueError):
        gradient_field(pixels)


def test_constant_image_all_zero():
    feature = hog(GrayImage(np.full((128, 128), 123, dtype=np.uint8)))
    assert feature.shape == (3776,)
    assert not feature.any()


def test_vertical_step_edge_lands_in_bin_zero():
    pixels = np.zeros((128, 128), dtype=np.uint8)
    pixels[:, 64:] = 255  # vertical edge: gradient points along +x, orientation 0
    per_window = hog(GrayImage(pixels)).reshape(64, DEFAULT_HOG_BINS)
    active = per_window[per_window.sum(axis=1) > 0]
    # Central differences put gradient on both columns flanking the step,
    # which straddle a window boundary: two window columns light up.
    assert len(active) == 16
    for window in active:
        assert window[0] > 0
        assert np.allclose(window[1:], 0.0)


def test_horizontal_step_edge_orientation():
    pixels = np.zeros((128, 128), dtype=np.uint8)
    pixels[64:, :] = 255  # gradient along +y, orientation pi/2
    per_window = hog(GrayImage(pixels)).reshape(64, DEFAULT_HOG_BINS)
    active = per_window[per_window.sum(axis=1) > 0]
    # pi/2 sits between anchors 29 and 30 of 59; nothing else is active.
    expected = {29, 30}
    for window in active:
        nonzero = set(np.nonzero(window)[0].tolist())
        assert nonzero <= expected and nonzero


def test_window_norms_zero_or_one():
    rng = np.random.default_rng(8)
    image = GrayImage(rng.integers(0, 256, (128, 128), dtype=np.uint8))
    per_window = hog(image).reshape(64, DEFAULT_HOG_BINS)
    norms = np.linalg.norm(per_window, axis=1)
    assert ((np.abs(norms - 1.0) < 1e-3) | (norms == 0.0)).all()
    assert (per_window >= 0.0).all()


def test_conventional_bin_count():
    rng = np.random.default_rng(9)
    image = GrayImage(rng.integers(0, 256, (128, 128), dtype=np.uint8))
    feature = hog(image, bins=9)
    assert feature.shape == (64 * 9,)


def test_gradient_field_ranges():
    rng = np.random.default_rng(10)
    magnitude, orientation = gradient_field(rng.integers(0, 256, (32, 32)))
    assert (magnitude >= 0).all()
    assert (orientation >= 0).all() and (orientation < np.pi).all()


def test_hog_rejects_bad_sizes():
    with pytest.raises(ValueError, match="divide"):
        hog(GrayImage(np.full((100, 128), 0, dtype=np.uint8)))
    with pytest.raises(ValueError, match="bins"):
        hog(GrayImage(np.full((128, 128), 0, dtype=np.uint8)), bins=0)
