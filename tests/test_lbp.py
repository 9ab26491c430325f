"""Local binary patterns against independent brute-force oracles."""

import numpy as np
import pytest

from bearface.imaging import GrayImage
from bearface.lbp import (
    NEIGHBOR_OFFSETS,
    UNIFORM_BIN_COUNT,
    lbp_codes,
    lbph,
    uniform_bin_table,
)


def reference_lbph(image: GrayImage, grid=(8, 8)) -> np.ndarray:
    """The per-window histogram loop the one-pass `lbph` must reproduce."""
    grid_y, grid_x = grid
    height, width = image.pixels.shape
    win_h = height // grid_y
    win_w = width // grid_x
    bins = uniform_bin_table()[lbp_codes(image.pixels)]
    feature = np.zeros(grid_y * grid_x * UNIFORM_BIN_COUNT, dtype=np.float64)
    for wy in range(grid_y):
        for wx in range(grid_x):
            window = bins[
                wy * win_h : wy * win_h + win_h - 2,
                wx * win_w : wx * win_w + win_w - 2,
            ]
            hist = np.bincount(window.ravel(), minlength=UNIFORM_BIN_COUNT)
            start = (wy * grid_x + wx) * UNIFORM_BIN_COUNT
            feature[start : start + UNIFORM_BIN_COUNT] = hist
    return feature


def reference_ix_lbph(image: GrayImage, grid=(8, 8)) -> np.ndarray:
    """The one-pass `np.ix_` histogram that `lbph` must reproduce."""
    grid_y, grid_x = grid
    height, width = image.pixels.shape
    win_h = height // grid_y
    win_w = width // grid_x
    bins = uniform_bin_table()[reference_codes(image.pixels)]
    rows = np.arange(bins.shape[0])
    rows = rows[rows % win_h < win_h - 2]
    cols = np.arange(bins.shape[1])
    cols = cols[cols % win_w < win_w - 2]
    window_key = UNIFORM_BIN_COUNT * ((rows // win_h * grid_x)[:, None] + cols // win_w)
    counts = np.bincount(
        (window_key + bins[np.ix_(rows, cols)]).ravel(),
        minlength=grid_y * grid_x * UNIFORM_BIN_COUNT,
    )
    return counts.astype(np.float64)


def reference_codes(pixels: np.ndarray) -> np.ndarray:
    """int64 LBP codes, as `lbp_codes` gives them in uint8."""
    image = np.asarray(pixels)
    center = image[1:-1, 1:-1]
    codes = np.zeros(center.shape, dtype=np.int64)
    height, width = image.shape
    for bit, (dy, dx) in enumerate(NEIGHBOR_OFFSETS):
        neighbor = image[1 + dy : height - 1 + dy, 1 + dx : width - 1 + dx]
        codes |= (neighbor >= center).astype(np.int64) << bit
    return codes


def _checkerboard(size: int = 128) -> np.ndarray:
    return (np.indices((size, size)).sum(axis=0) % 2 * 255).astype(np.uint8)


REFERENCE_IMAGES = {
    "random-a": np.random.default_rng(41).integers(0, 256, (128, 128), dtype=np.uint8),
    "random-b": np.random.default_rng(42).integers(0, 256, (128, 128), dtype=np.uint8),
    "constant": np.full((128, 128), 90, dtype=np.uint8),
    "checkerboard": _checkerboard(),
    "inverted-checkerboard": 255 - _checkerboard(),
    "columns": np.tile(np.array([0, 255], dtype=np.uint8), (128, 64)),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_IMAGES))
@pytest.mark.parametrize("grid", [(8, 8), (4, 4), (2, 8)])
def test_matches_per_window_reference(name, grid):
    image = GrayImage(REFERENCE_IMAGES[name])
    assert np.array_equal(lbph(image, grid), reference_lbph(image, grid))


def test_matches_reference_on_non_square_image():
    pixels = np.random.default_rng(43).integers(0, 256, (96, 160), dtype=np.uint8)
    for grid in [(8, 8), (4, 10), (3, 5)]:
        image = GrayImage(pixels)
        assert np.array_equal(lbph(image, grid), reference_lbph(image, grid))


@pytest.mark.parametrize(
    ("shape", "grid"),
    [((128, 128), (8, 8)), ((128, 128), (16, 16)), ((96, 160), (4, 10)), ((9, 12), (3, 4)),
     ((3, 3), (1, 1)), ((45, 30), (3, 5))],
)
def test_matches_ix_reference_bit_for_bit(shape, grid):
    rng = np.random.default_rng(shape[0] * shape[1])
    for pixels in (
        rng.integers(0, 256, shape, dtype=np.uint8),
        rng.integers(100, 103, shape, dtype=np.uint8),  # many ties
    ):
        image = GrayImage(pixels)
        feature = lbph(image, grid)
        expected = reference_ix_lbph(image, grid)
        assert np.array_equal(feature.view(np.int64), expected.view(np.int64))
        codes = lbp_codes(pixels)
        assert codes.dtype == np.uint8
        assert np.array_equal(codes, reference_codes(pixels))


def oracle_code(patch: np.ndarray) -> int:
    """Brute-force LBP of one 3x3 patch (independent neighbour loop)."""
    center = patch[1, 1]
    code = 0
    for bit, (dy, dx) in enumerate(NEIGHBOR_OFFSETS):
        if patch[1 + dy, 1 + dx] >= center:
            code |= 1 << bit
    return code


def oracle_transitions(code: int) -> int:
    """Transition count via the rotated-string method."""
    bits = format(code, "08b")
    ring = bits + bits[0]
    return sum(1 for a, b in zip(ring, ring[1:]) if a != b)


def test_codes_match_patch_oracle():
    rng = np.random.default_rng(21)
    image = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    codes = lbp_codes(image)
    for _ in range(300):
        r = int(rng.integers(1, 31))
        c = int(rng.integers(1, 31))
        patch = image[r - 1 : r + 2, c - 1 : c + 2]
        assert codes[r - 1, c - 1] == oracle_code(patch)


def test_single_white_pixel_neighbourhood():
    image = np.zeros((5, 5), dtype=np.uint8)
    image[2, 2] = 255
    codes = lbp_codes(image)
    for r in range(1, 4):
        for c in range(1, 4):
            assert codes[r - 1, c - 1] == oracle_code(image[r - 1 : r + 2, c - 1 : c + 2])
    # The bright centre sees all neighbours below it: only ties count, none here.
    assert codes[1, 1] == 0


def test_uniform_table_against_transition_oracle():
    table = uniform_bin_table()
    uniform_codes = [code for code in range(256) if oracle_transitions(code) <= 2]
    assert len(uniform_codes) == 58
    for code in range(256):
        if oracle_transitions(code) <= 2:
            assert table[code] == uniform_codes.index(code)
        else:
            assert table[code] == 58
    assert table.max() == UNIFORM_BIN_COUNT - 1


def test_constant_image_histograms():
    image = GrayImage(np.full((128, 128), 90, dtype=np.uint8))
    feature = lbph(image)
    assert feature.shape == (3776,)
    table = uniform_bin_table()
    all_ones_bin = table[0xFF]  # neighbour >= centre holds everywhere
    per_window = feature.reshape(64, UNIFORM_BIN_COUNT)
    for window in per_window:
        assert window[all_ones_bin] == 14 * 14
        assert window.sum() == 14 * 14


def test_window_mass_invariant():
    rng = np.random.default_rng(4)
    image = GrayImage(rng.integers(0, 256, (128, 128), dtype=np.uint8))
    per_window = lbph(image).reshape(64, UNIFORM_BIN_COUNT)
    assert (per_window.sum(axis=1) == 14 * 14).all()


def test_alternative_window_reading():
    rng = np.random.default_rng(5)
    image = GrayImage(rng.integers(0, 256, (128, 128), dtype=np.uint8))
    feature = lbph(image, grid=(16, 16))  # 256 windows of 8x8 px
    assert feature.shape == (16 * 16 * UNIFORM_BIN_COUNT,)
    per_window = feature.reshape(256, UNIFORM_BIN_COUNT)
    assert (per_window.sum(axis=1) == 6 * 6).all()


def test_lbph_rejects_bad_sizes():
    with pytest.raises(ValueError, match="divide"):
        lbph(GrayImage(np.full((100, 128), 0, dtype=np.uint8)))
    with pytest.raises(ValueError, match="too small"):
        lbph(GrayImage(np.full((16, 16), 0, dtype=np.uint8)))
    with pytest.raises(ValueError, match="3x3"):
        lbp_codes(np.zeros((2, 5), dtype=np.uint8))
