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

- Every pixel gets the key ``window * bins + bin``, and one ``bincount``
  over the image in row-major order adds each key's votes in the order
  its window's own row-major scan would. The lower-anchor and the
  upper-anchor votes are two sums that are added afterwards.
- Each window's L2 norm is one ``dot`` of its own histogram row, which is
  how ``np.linalg.norm`` computes the norm of a vector.
  A batched ``norm(axis=1)`` or ``einsum`` adds the squares in another
  order and changes the last bits of some features.
- The magnitude is ``np.hypot``: with glibc, ``sqrt(gx**2 + gy**2)``
  rounds differently on 5 964 of the 1 042 441 gradient pairs an 8-bit
  image can produce.
- The orientation fold adds pi to negative angles and maps an angle of
  exactly pi to 0, which is what ``np.mod(angle, pi)`` computes for
  angles in [-pi, pi], without its slower divmod path.
"""

from __future__ import annotations

import numpy as np

from .imaging import GrayImage

DEFAULT_HOG_BINS = 59
_NORM_EPS = 1e-6


def gradient_field(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(magnitude, unsigned orientation in [0, pi)) per pixel."""
    image = np.asarray(pixels, dtype=np.float64)
    gy, gx = np.gradient(image)
    magnitude = np.hypot(gx, gy)
    return magnitude, fold_orientation(np.arctan2(gy, gx))


def fold_orientation(angle: np.ndarray) -> np.ndarray:
    """``np.mod(angle, pi)`` bit for bit, for angles in [-pi, pi]."""
    # Adding 0.0 to the other angles turns -0.0 into 0.0, as np.mod does.
    folded = angle + np.where(angle < 0, np.pi, 0.0)
    folded[angle == np.pi] = 0.0
    return folded


def hog(
    image: GrayImage, grid: tuple[int, int] = (8, 8), bins: int = DEFAULT_HOG_BINS
) -> np.ndarray:
    """Concatenated per-window orientation histograms.

    Feature length is grid_y * grid_x * bins (3776 for the default 8x8 grid
    and 59 bins on a 128x128 crop; pass bins=9 for the conventional
    variant). Each window is normalized to unit L2 norm with a small
    epsilon, so zero-gradient windows stay exactly zero.
    """
    if bins < 1:
        raise ValueError("bins must be at least 1")
    grid_y, grid_x = grid
    height, width = image.pixels.shape
    if height % grid_y or width % grid_x:
        raise ValueError(
            f"image {width}x{height} does not divide into a {grid_x}x{grid_y} grid"
        )
    win_h = height // grid_y
    win_w = width // grid_x

    magnitude, orientation = gradient_field(image.pixels)
    position = orientation * (bins / np.pi)
    lower = np.floor(position)
    fraction = position - lower
    # position lies in [0, bins], so wrapping needs no division.
    bin_lo = lower.astype(np.int64)
    bin_lo[bin_lo == bins] = 0
    bin_hi = bin_lo + 1
    bin_hi[bin_hi == bins] = 0
    weight_lo = magnitude * (1.0 - fraction)
    weight_hi = magnitude * fraction

    windows = grid_y * grid_x
    window_key = bins * (
        (np.arange(height) // win_h * grid_x)[:, None] + np.arange(width) // win_w
    )
    size = windows * bins
    hist_lo = np.bincount((window_key + bin_lo).ravel(), weight_lo.ravel(), size)
    hist_hi = np.bincount((window_key + bin_hi).ravel(), weight_hi.ravel(), size)
    hist = (hist_lo + hist_hi).reshape(windows, bins)
    # np.linalg.norm of a 1-D array is sqrt(x.dot(x)); see the module notes.
    norms = np.sqrt([row.dot(row) for row in hist])
    scale = np.where(norms > 0, norms + _NORM_EPS, 1.0)
    return (hist / scale[:, None]).ravel()
