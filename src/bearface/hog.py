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
  how ``np.linalg.norm`` computes the norm of a vector. The batched
  product of (windows, 1, bins) by (windows, bins, 1) stacks takes that
  same dot once per window, and so gives the same bits.
  A batched ``norm(axis=1)`` or ``einsum`` adds the squares in another
  order and changes the last bits of some features.
- Gradients are doubled central differences taken in integers: interior
  ``p[k+1] - p[k-1]``, borders ``2 * (p[1] - p[0])``. Halving them is
  exact, and it is what ``np.gradient`` returns for integer pixels, so
  every gradient of an 8-bit image lies on the half-integer lattice of
  [-255, 255]^2.
- The magnitude is ``np.hypot`` read from a 511 x 511 table over the
  non-negative quarter of that lattice, indexed by the absolute doubled
  differences. ``np.hypot`` gives the same bits for (+-gx, +-gy) on the
  whole lattice, so the table returns what the call would, at a gather's
  cost. ``sqrt(gx**2 + gy**2)`` is not a substitute: with glibc it rounds
  differently on 5 964 of the 1 042 441 lattice pairs.
- The orientation fold maps an angle of exactly pi to 0 and adds pi to
  negative angles, which is what ``np.mod(angle, pi)`` computes for
  angles in [-pi, pi], without its slower divmod path. The angle is
  negative exactly where the integer ``dy`` is, and is pi only where
  ``dy == 0`` and ``dx < 0``; ``dy`` halves to +0.0, never -0.0, so
  adding 0.0 elsewhere changes no bit. The offsets are ``(dy < 0) * pi``:
  a ``np.where`` of two scalars, or ``np.add(..., where=)``, is slower.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .imaging import GrayImage

DEFAULT_HOG_BINS = 59
_NORM_EPS = 1e-6
_LATTICE = 511  # doubled absolute differences of 8-bit pixels: 0..510


@lru_cache(maxsize=None)
def _magnitude_table() -> np.ndarray:
    """``np.hypot(i / 2, j / 2)`` at flat index ``i * 511 + j``."""
    half = np.arange(_LATTICE) / 2.0
    table = np.hypot(half[:, None], half).ravel()
    table.setflags(write=False)
    return table


def gradient_field(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(magnitude, unsigned orientation in [0, pi)) per pixel of an 8-bit image.

    `pixels` must be a 2-D integer array with values in 0..255 and at
    least 2 px along each axis.
    """
    image = np.asarray(pixels)
    if not np.issubdtype(image.dtype, np.integer):
        raise ValueError(f"gradient_field takes 8-bit pixels, got dtype {image.dtype}")
    if image.dtype != np.uint8 and image.size and (image.min() < 0 or image.max() > 255):
        raise ValueError("gradient_field takes 8-bit pixels, got values outside 0..255")
    if image.ndim != 2 or min(image.shape) < 2:
        raise ValueError(f"need a 2-D image at least 2x2, got shape {image.shape}")
    # Doubled differences: interior p[k+1] - p[k-1], borders 2 (p[1] - p[0]).
    p = image.astype(np.int32)
    dy = np.empty_like(p)
    dy[1:-1] = p[2:] - p[:-2]
    dy[[0, -1]] = 2 * (p[[1, -1]] - p[[0, -2]])
    dx = np.empty_like(p)
    dx[:, 1:-1] = p[:, 2:] - p[:, :-2]
    dx[:, [0, -1]] = 2 * (p[:, [1, -1]] - p[:, [0, -2]])
    index = np.abs(dx)
    index *= _LATTICE
    index += np.abs(dy)
    return _magnitude_table().take(index), _orientation(dy, dx)


def _orientation(dy: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """``np.mod(np.arctan2(dy / 2, dx / 2), pi)`` bit for bit, for integer
    doubled differences; see the module notes."""
    angle = np.arctan2(dy * 0.5, dx * 0.5)
    angle[angle == np.pi] = 0.0
    angle += np.multiply(dy < 0, np.pi)
    return angle


@lru_cache(maxsize=8)
def _window_key(height: int, width: int, grid_y: int, grid_x: int, bins: int) -> np.ndarray:
    """``window * bins`` for each pixel of a height x width image."""
    key = bins * (
        (np.arange(height) // (height // grid_y) * grid_x)[:, None]
        + np.arange(width) // (width // grid_x)
    )
    key.setflags(write=False)
    return key


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
    window_key = _window_key(height, width, grid_y, grid_x, bins)
    size = windows * bins
    hist_lo = np.bincount((window_key + bin_lo).ravel(), weight_lo.ravel(), size)
    hist_hi = np.bincount((window_key + bin_hi).ravel(), weight_hi.ravel(), size)
    hist = (hist_lo + hist_hi).reshape(windows, bins)
    # np.linalg.norm of a 1-D array is sqrt(x.dot(x)); see the module notes.
    norms = np.sqrt((hist[:, None, :] @ hist[:, :, None]).ravel())
    scale = np.where(norms > 0, norms + _NORM_EPS, 1.0)
    return (hist / scale[:, None]).ravel()
