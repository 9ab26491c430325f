"""Gradient-orientation histograms over a window grid.

Gradients are central differences (one-sided at the borders). Orientation
is unsigned, folded into [0, pi), and each pixel votes with its gradient
magnitude, linearly split between the two nearest orientation anchors;
anchor i sits at i * pi / bins, and the split wraps circularly so
orientations near pi blend back into bin 0. Window histograms are
L2-normalized and concatenated.

The histograms are built in one pass but add the same terms in the same
order as a per-window loop, so the features are bit for bit those of one
``bincount`` per window:

- Gradients are doubled central differences taken in integers: interior
  ``p[k+1] - p[k-1]``, borders ``2 * (p[1] - p[0])``. Halving them is
  exact, and it is what ``np.gradient`` returns for integer pixels.
- A pixel's vote (lower bin, lower weight, upper weight) is a function of
  its two doubled differences alone, stated once in `_votes`. Interior
  differences of 8-bit pixels lie in [-255, 255], so `_vote_table` holds
  the vote of every pair on that 511 x 511 lattice, built once per bin
  count, and `hog` gathers each pixel's vote from it. A border difference
  ``2 * (p[1] - p[0])`` can reach +-510; the few border pixels beyond
  +-255 get `_votes` applied directly. The table is about 4.2 MiB and
  takes some 20 ms to build; `sqrt(gx**2 + gy**2)` is not a substitute
  for its ``np.hypot``: with glibc it rounds differently on 5 964 of the
  1 042 441 pairs of the +-510 lattice.
- Every pixel gets the key ``window * bins + lower bin``, where
  `imaging.window_index` numbers the windows and states the grid rule. One
  ``bincount`` over the image in row-major order adds each key's votes in
  the order its window's own row-major scan would. The upper bin is the
  lower bin plus one, wrapped, so the upper-weight ``bincount`` over the
  same keys is the upper-anchor histogram shifted by one bin within each
  window. The lower-anchor and the upper-anchor votes are two sums that
  are added afterwards.
- Each window's L2 norm is one ``dot`` of its own histogram row, which is
  how ``np.linalg.norm`` computes the norm of a vector. The batched
  product of (windows, 1, bins) by (windows, bins, 1) stacks takes that
  same dot once per window, and so gives the same bits.
  A batched ``norm(axis=1)`` or ``einsum`` adds the squares in another
  order and changes the last bits of some features.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .imaging import GrayImage, window_index

DEFAULT_HOG_BINS = 59
_NORM_EPS = 1e-6
_REACH = 255  # interior doubled differences of 8-bit pixels: -255..255
_SIDE = 2 * _REACH + 1


def _votes(
    dy: np.ndarray, dx: np.ndarray, bins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower bin, lower weight, upper weight) of gradients (dy / 2, dx / 2).

    The lower bin has the smallest unsigned type that holds ``bins - 1``.
    """
    gy = dy / 2.0
    gx = dx / 2.0
    magnitude = np.hypot(gx, gy)
    position = np.mod(np.arctan2(gy, gx), np.pi) * (bins / np.pi)
    lower = np.floor(position)
    fraction = position - lower
    bin_lo = lower.astype(np.int64) % bins
    return (
        bin_lo.astype(np.min_scalar_type(bins - 1)),
        magnitude * (1.0 - fraction),
        magnitude * fraction,
    )


@lru_cache(maxsize=4)
def _vote_table(bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_votes` of (dy, dx) at flat index ``(dy + 255) * 511 + dx + 255``."""
    doubled = np.arange(-_REACH, _REACH + 1)
    table = tuple(part.ravel() for part in _votes(doubled[:, None], doubled, bins))
    for part in table:
        part.setflags(write=False)
    return table


def hog(
    image: GrayImage, grid: tuple[int, int] = (8, 8), bins: int = DEFAULT_HOG_BINS
) -> np.ndarray:
    """Concatenated per-window orientation histograms.

    Feature length is grid_y * grid_x * bins (3776 for the default 8x8 grid
    and 59 bins on a 128x128 crop; pass bins=9 for the conventional
    variant). Each window is normalized to unit L2 norm with a small
    epsilon, so zero-gradient windows stay exactly zero. The image must be
    at least 2 px along each axis, and the grid must divide it
    (`imaging.window_index`).
    """
    if not (isinstance(bins, (int, np.integer)) and bins >= 1):
        raise ValueError(f"hog bins must be an int >= 1, got {bins!r}")
    grid_y, grid_x = grid
    height, width = image.pixels.shape
    window = window_index(height, width, grid_y, grid_x)
    if min(height, width) < 2:
        raise ValueError(f"need an image at least 2x2, got shape {image.pixels.shape}")

    # Doubled differences; a step of height - 1 (width - 1) picks the borders.
    p = image.pixels.astype(np.int32)
    dy = np.empty_like(p)
    np.subtract(p[2:], p[:-2], out=dy[1:-1])
    dy[:: height - 1] = p[[1, -1]] - p[[0, -2]]
    dy[:: height - 1] *= 2
    # Along rows the flat difference is right except at columns 0 and -1,
    # which are overwritten with the borders.
    dx = np.empty_like(p)
    np.subtract(p.ravel()[2:], p.ravel()[:-2], out=dx.ravel()[1:-1])
    dx[:, :: width - 1] = p[:, [1, -1]] - p[:, [0, -2]]
    dx[:, :: width - 1] *= 2
    index = dy * _SIDE
    index += dx
    index += _REACH * _SIDE + _REACH
    index = index.astype(np.intp)  # converted once for the three gathers
    # A pixel beyond the table gathers a clipped stand-in, replaced below.
    bin_lo, weight_lo, weight_hi = (part.take(index, mode="clip") for part in _vote_table(bins))
    rows = np.abs(dy[:: height - 1]) > _REACH
    columns = np.abs(dx[:, :: width - 1]) > _REACH
    if rows.any() or columns.any():
        far = np.zeros(p.shape, dtype=bool)
        far[:: height - 1] |= rows
        far[:, :: width - 1] |= columns
        bin_lo[far], weight_lo[far], weight_hi[far] = _votes(dy[far], dx[far], bins)

    windows = grid_y * grid_x
    key = (window * bins + bin_lo).ravel()
    size = windows * bins
    hist_lo = np.bincount(key, weight_lo.ravel(), size).reshape(windows, bins)
    hist_hi = np.bincount(key, weight_hi.ravel(), size).reshape(windows, bins)
    # Upper bin = lower bin + 1, wrapped: shift each window's row by one.
    hist = hist_lo + np.concatenate((hist_hi[:, -1:], hist_hi[:, :-1]), axis=1)
    # np.linalg.norm of a 1-D array is sqrt(x.dot(x)); see the module notes.
    norms = np.sqrt((hist[:, None, :] @ hist[:, :, None]).ravel())
    scale = np.where(norms > 0, norms + _NORM_EPS, 1.0)
    return (hist / scale[:, None]).ravel()
