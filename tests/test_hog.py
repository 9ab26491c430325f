"""Gradient-orientation histograms."""

import re

import numpy as np
import pytest

from bearface import hog as hog_module
from bearface.hog import DEFAULT_HOG_BINS, hog
from bearface.imaging import GrayImage


def reference_votes(gy: np.ndarray, gx: np.ndarray, bins: int):
    """(lower bin, upper bin, lower weight, upper weight) of float gradients."""
    magnitude = np.hypot(gx, gy)
    orientation = np.mod(np.arctan2(gy, gx), np.pi)
    position = orientation * (bins / np.pi)
    lower = np.floor(position)
    fraction = position - lower
    bin_lo = lower.astype(np.int64) % bins
    bin_hi = (bin_lo + 1) % bins
    return bin_lo, bin_hi, magnitude * (1.0 - fraction), magnitude * fraction


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


def reference_hog(image: GrayImage, grid=(8, 8), bins=DEFAULT_HOG_BINS) -> np.ndarray:
    """The per-window histogram loop the one-pass `hog` must reproduce."""
    grid_y, grid_x = grid
    height, width = image.pixels.shape
    win_h = height // grid_y
    win_w = width // grid_x
    gy, gx = np.gradient(np.asarray(image.pixels, dtype=np.float64))
    bin_lo, bin_hi, weight_lo, weight_hi = reference_votes(gy, gx, bins)
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


@pytest.mark.parametrize("bins", [1, 9, 59, 180, 300])
def test_vote_table_matches_float_reference(bins):
    # Every interior gradient of an 8-bit image: 511^2 doubled pairs.
    doubled = np.arange(-255, 256)
    dy, dx = np.meshgrid(doubled, doubled, indexing="ij")
    bin_lo, weight_lo, weight_hi = hog_module._vote_table(bins)
    assert bin_lo.dtype == (np.uint8 if bins <= 256 else np.uint16)
    assert bin_lo.shape == weight_lo.shape == weight_hi.shape == (511 * 511,)
    flat = (dy + 255) * 511 + dx + 255
    expected_lo, _, expected_weight_lo, expected_weight_hi = reference_votes(
        dy.ravel() / 2.0, dx.ravel() / 2.0, bins
    )
    assert np.array_equal(bin_lo[flat.ravel()], expected_lo)
    assert _same_bits(weight_lo[flat.ravel()], expected_weight_lo)
    assert _same_bits(weight_hi[flat.ravel()], expected_weight_hi)


def test_direct_votes_match_float_reference_on_all_8bit_gradients():
    # Doubled differences of 8-bit pixels lie in [-510, 510] (border ones
    # beyond +-255 take `_votes` directly): every pair is on this lattice.
    doubled = np.arange(-510, 511, dtype=np.int32)
    dy, dx = np.meshgrid(doubled, doubled, indexing="ij")
    assert dy.size == 1_042_441
    bin_lo, weight_lo, weight_hi = hog_module._votes(dy, dx, DEFAULT_HOG_BINS)
    expected_lo, _, expected_weight_lo, expected_weight_hi = reference_votes(
        dy / 2.0, dx / 2.0, DEFAULT_HOG_BINS
    )
    assert np.array_equal(bin_lo, expected_lo)
    assert _same_bits(weight_lo, expected_weight_lo)
    assert _same_bits(weight_hi, expected_weight_hi)


def _edge_steps(shape):
    """0/255 images whose border differences 2 * (p[1] - p[0]) reach +-510."""
    rows, cols = np.indices(shape)
    yield ((rows == 0) * 255).astype(np.uint8)
    yield ((cols == shape[1] - 1) * 255).astype(np.uint8)
    yield (((rows == 0) ^ (cols == 0)) * 255).astype(np.uint8)
    yield ((rows + cols) % 2 * 255).astype(np.uint8)


@pytest.mark.parametrize(
    "shape", [(2, 2), (2, 9), (11, 2), (3, 3), (17, 31), (128, 128), (64, 200), (2, 16), (16, 2)]
)
def test_gradient_field_matches_float_reference(shape):
    # The votes `hog` gathers or computes are those of the float
    # np.gradient field. In the 2-px shapes every pixel is a border pixel,
    # and random pixels and the 0/255 steps put many beyond the table.
    rng = np.random.default_rng(sum(shape))
    grids = [grid for grid in [(1, 1), (2, 1), (1, 2)]
             if shape[0] % grid[0] == 0 and shape[1] % grid[1] == 0]
    for pixels in (
        *(rng.integers(0, 256, shape, dtype=np.uint8) for _ in range(3)),
        np.full(shape, 255, dtype=np.uint8),
        *_edge_steps(shape),
    ):
        image = GrayImage(pixels)
        for grid in grids:
            for bins in (1, 9, 59, 180, 300):
                assert _same_bits(hog(image, grid, bins), reference_hog(image, grid, bins))


def test_only_pixels_beyond_the_table_are_computed(monkeypatch):
    hog_module._vote_table(DEFAULT_HOG_BINS)  # built before counting
    sizes = []
    votes = hog_module._votes

    def counted(dy, dx, bins):
        sizes.append(dy.size)
        return votes(dy, dx, bins)

    monkeypatch.setattr(hog_module, "_votes", counted)
    smooth = (np.add.outer(np.arange(128), np.arange(128)) % 256).astype(np.uint8)
    hog(GrayImage(smooth))
    assert sizes == []
    # Row 0 steps by 255 and column 0 by 200, so 127 pixels of row 0 (not
    # the corner, whose dy is 2 * 55) and 127 of column 0 lie beyond +-255;
    # row 1's interior dy is exactly 255 and comes from the table.
    pixels = np.full((128, 128), 255, dtype=np.uint8)
    pixels[0] = 0
    pixels[1:, 0] = 55
    image = GrayImage(pixels)
    assert _same_bits(hog(image), reference_hog(image))
    assert sizes == [254]


@pytest.mark.parametrize(
    "pixels",
    [np.zeros((4, 4)), np.full((4, 4), 256), np.full((4, 4), -1), np.zeros((4, 4), dtype=bool),
     np.zeros((1, 5), dtype=np.uint8), np.zeros((5, 1), dtype=np.uint8),
     np.zeros((3, 3, 3), dtype=np.uint8), np.zeros(5, dtype=np.uint8)],
    ids=["float", "above-255", "negative", "bool", "one-row", "one-column", "3-d", "1-d"],
)
def test_gradient_field_rejects_non_8bit_input(pixels):
    # A non-8-bit or non-2-D array is no GrayImage; `hog` refuses an image
    # with no two pixels along an axis to difference.
    with pytest.raises(ValueError, match="image must be|at least 2x2"):
        hog(GrayImage(pixels), (1, 1))


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
    bin_lo, weight_lo, weight_hi = hog_module._vote_table(DEFAULT_HOG_BINS)
    assert bin_lo.max() == DEFAULT_HOG_BINS - 1
    assert (weight_lo >= 0).all() and (weight_hi >= 0).all()
    rng = np.random.default_rng(10)
    feature = hog(GrayImage(rng.integers(0, 256, (32, 32), dtype=np.uint8)))
    assert np.isfinite(feature).all() and (feature >= 0).all() and (feature <= 1).all()


def test_hog_rejects_bad_sizes():
    with pytest.raises(ValueError, match="divide"):
        hog(GrayImage(np.full((100, 128), 0, dtype=np.uint8)))
    with pytest.raises(ValueError, match="bins"):
        hog(GrayImage(np.full((128, 128), 0, dtype=np.uint8)), bins=0)


@pytest.mark.parametrize("grid", [(0, 1), (-2, -2), (2.0, 2)])
def test_hog_refuses_grids_that_are_not_positive_ints(grid):
    image = GrayImage(np.zeros((16, 16), dtype=np.uint8))
    with pytest.raises(ValueError, match=re.escape(f"grid {grid} must be")):
        hog(image, grid)


@pytest.mark.parametrize("bins", [0, -3, 2.5, 2.0, "9"])
def test_hog_refuses_bins_that_are_not_positive_ints(bins):
    image = GrayImage(np.zeros((16, 16), dtype=np.uint8))
    with pytest.raises(ValueError, match=re.escape(f"hog bins must be an int >= 1, got {bins!r}")):
        hog(image, (2, 2), bins)
