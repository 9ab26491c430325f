"""Uniform local binary pattern histograms over a window grid.

Every pixel is coded by comparing its 8 ring neighbours (radius 1) against
it: neighbour >= centre sets the bit. Codes whose circular bit string has
at most two 0/1 transitions are "uniform"; the 58 uniform codes get their
own histogram bins (in ascending code order) and everything else shares
one catch-all bin, for 59 bins per window.

Windows are independent: each window's histogram counts only the pixels
whose full 3x3 neighbourhood lies inside that window, so a 16x16 window
contributes exactly 14x14 codes no matter where it sits in the image.

All windows are counted in one pass. `imaging.window_index` numbers the
window of every pixel and states the grid rule. A code is counted when the
first and the last pixel of its 3x3 neighbourhood (top left, bottom right)
share a window, which puts the whole neighbourhood in that window; it gets
the key ``window * 59 + bin``, and a single integer ``bincount`` over those
keys gives every window's histogram. Counts are integers, so the result is
exactly that of one ``bincount`` per window. The counted positions and
their keys depend only on the image shape and the grid, so they are found
once per shape and gathered by flat index.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .imaging import GrayImage, window_index

#: Ring neighbours in clockwise order starting at the top-left corner;
#: neighbour p contributes bit value 2**p. The order is circular, which is
#: what makes the transition count meaningful.
NEIGHBOR_OFFSETS: tuple[tuple[int, int], ...] = (
    (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1),
)

UNIFORM_BIN_COUNT = 59  # 58 uniform codes + 1 shared non-uniform bin
MIN_WINDOW = 3  # px per window side: one code row and column of its own


def circular_transitions(code: int) -> int:
    """Number of 0/1 changes when the 8-bit code is read as a ring."""
    rotated = ((code << 1) | (code >> 7)) & 0xFF
    return int(bin(code ^ rotated).count("1"))


def uniform_bin_table() -> np.ndarray:
    """Map from LBP code (0..255) to histogram bin (0..58)."""
    table = np.full(256, UNIFORM_BIN_COUNT - 1, dtype=np.int64)
    uniform_codes = [c for c in range(256) if circular_transitions(c) <= 2]
    for bin_index, code in enumerate(uniform_codes):
        table[code] = bin_index
    return table


_BIN_TABLE = uniform_bin_table()


def lbp_codes(pixels: np.ndarray) -> np.ndarray:
    """LBP codes of all pixels with a complete 3x3 neighbourhood.

    Input (h, w) yields (h-2, w-2) uint8 codes; entry [i, j] codes pixel
    (i+1, j+1).
    """
    image = np.asarray(pixels)
    if image.ndim != 2 or image.shape[0] < 3 or image.shape[1] < 3:
        raise ValueError(f"need a 2-D image at least 3x3, got shape {image.shape}")
    center = image[1:-1, 1:-1]
    codes = np.zeros(center.shape, dtype=np.uint8)
    # One boolean plane serves every neighbour: True is the byte 1, so its
    # uint8 view shifted in place is the neighbour's bit.
    plane = np.empty(center.shape, dtype=bool)
    bits = plane.view(np.uint8)
    height, width = image.shape
    for bit, (dy, dx) in enumerate(NEIGHBOR_OFFSETS):
        neighbor = image[1 + dy : height - 1 + dy, 1 + dx : width - 1 + dx]
        np.greater_equal(neighbor, center, out=plane)
        bits <<= bit
        codes |= bits
    return codes


@lru_cache(maxsize=8, typed=True)  # a float grid is checked, not served an int grid's entry
def _counted_codes(height: int, width: int, grid_y: int, grid_x: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the counted codes, and ``window * 59`` for each."""
    window = window_index(height, width, grid_y, grid_x)
    positions = np.flatnonzero(window[:-2, :-2] == window[2:, 2:])
    key = window[1:-1, 1:-1].ravel()[positions] * UNIFORM_BIN_COUNT
    positions.setflags(write=False)
    key.setflags(write=False)
    return positions, key


def lbph(image: GrayImage, grid: tuple[int, int] = (8, 8)) -> np.ndarray:
    """Concatenated per-window uniform-LBP histograms.

    The image is split into a grid_y x grid_x grid of equal, non-overlapping
    windows (`imaging.window_index`). Feature length is
    grid_y * grid_x * 59; with the default 8x8 grid on a 128x128 crop that
    is 3776. Histogram entries are raw counts.
    """
    grid_y, grid_x = grid
    height, width = image.pixels.shape
    positions, key = _counted_codes(height, width, grid_y, grid_x)
    win_h = height // grid_y
    win_w = width // grid_x
    if win_h < MIN_WINDOW or win_w < MIN_WINDOW:
        raise ValueError(f"windows of {win_w}x{win_h} px are too small for LBP")
    bins = _BIN_TABLE.take(lbp_codes(image.pixels).ravel().take(positions))
    counts = np.bincount(key + bins, minlength=grid_y * grid_x * UNIFORM_BIN_COUNT)
    return counts.astype(np.float64)
